package simgpu

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// timing epsilon in nanoseconds: completions within this window coincide.
const epsNS = 1e-6

// kernelExec is one launched kernel making its way through the simulated
// device: queued behind stream predecessors and default-stream barriers,
// waiting for a hardware queue slot, then admitted to SMs in block cohorts.
type kernelExec struct {
	name string
	tag  string
	cfg  LaunchConfig
	seq  int

	streamID int

	issue float64 // host time the launch call completed (ns)
	deps  []*kernelExec

	flopsPerBlock float64
	bytesPerBlock float64
	threads       int // per block
	smem          int // per block

	hasSlot       bool
	started       bool
	blocksLeft    int
	totalBlocks   int
	activeCohorts int

	// fixedDur > 0 marks a DMA transfer (memcpy): it occupies its stream
	// for exactly this long but consumes no SM resources and no hardware
	// kernel queue slot (copy engines are separate).
	fixedDur float64

	// extra is injected hang time in ns: every cohort of this kernel
	// retires no earlier than its admission plus this stall.
	extra float64

	start float64
	end   float64
	done  bool
}

func (e *kernelExec) depsDone() bool {
	for _, d := range e.deps {
		if !d.done {
			return false
		}
	}
	return true
}

// cohort is a set of homogeneous blocks of one kernel admitted together and
// retiring together. perSM holds how many of the cohort's blocks sit on each
// SM.
type cohort struct {
	exec   *kernelExec
	blocks int
	perSM  []int32

	remC float64 // remaining effective FLOPs
	remM float64 // remaining effective bytes

	rateC float64 // FLOPs per ns under the current residency
	rateM float64 // bytes per ns under the current residency

	minEnd float64 // latency floor: cohort cannot retire before this time
}

// engine is the discrete-event core. It is not safe for concurrent use; the
// owning Device serializes access.
type engine struct {
	spec DeviceSpec

	now float64 // device timeline, ns

	smThreads []int
	smBlocks  []int
	smSmem    []int

	// queues holds issued-but-not-fully-admitted kernels as per-stream
	// FIFOs: only each stream's head can possibly run next (CUDA stream
	// semantics), which keeps every scheduling scan O(#streams) instead of
	// O(#outstanding kernels).
	queues       map[int][]*kernelExec
	cohorts      []*cohort
	runningSlots int
	maxSlots     int

	onComplete func(*kernelExec)

	// Per-event scratch, reused across calls: the stream heads in launch
	// order, admitBlocks' per-SM room and load, computeRates' per-SM demand.
	headBuf []*kernelExec
	fit     []int
	load    []int
	demand  []float64

	// utilization accounting (invariant checks and reports)
	threadNSIntegral float64 // ∫ resident threads dt
	flopsRetired     float64
	bytesRetired     float64

	peakFlopsPerSMns float64 // FLOP per ns per SM
	bwBytesPerNS     float64
	satThreads       float64 // resident threads needed to saturate DRAM
	floorNS          float64
}

func newEngine(spec DeviceSpec, onComplete func(*kernelExec)) *engine {
	return &engine{
		spec:             spec,
		queues:           map[int][]*kernelExec{},
		smThreads:        make([]int, spec.SMCount),
		smBlocks:         make([]int, spec.SMCount),
		smSmem:           make([]int, spec.SMCount),
		fit:              make([]int, spec.SMCount),
		load:             make([]int, spec.SMCount),
		demand:           make([]float64, spec.SMCount),
		maxSlots:         spec.MaxConcurrentKernels(),
		onComplete:       onComplete,
		peakFlopsPerSMns: spec.PeakFlopsPerSM() * 1e-9,
		bwBytesPerNS:     spec.MemBandwidth() * 1e-9,
		satThreads:       spec.MemSaturationOccupancy * float64(spec.SMCount*spec.MaxThreadsPerSM),
		floorNS:          float64(spec.KernelLatencyFloor.Nanoseconds()),
	}
}

func (g *engine) reset() {
	g.now = 0
	for i := range g.smThreads {
		g.smThreads[i], g.smBlocks[i], g.smSmem[i] = 0, 0, 0
	}
	clear(g.queues)
	g.cohorts = nil
	g.runningSlots = 0
	g.threadNSIntegral = 0
	g.flopsRetired = 0
	g.bytesRetired = 0
}

func (g *engine) idle() bool {
	return len(g.queues) == 0 && len(g.cohorts) == 0
}

// enqueue registers a launched kernel. Deps must have lower seq numbers.
func (g *engine) enqueue(e *kernelExec) {
	e.blocksLeft = e.totalBlocks
	g.queues[e.streamID] = append(g.queues[e.streamID], e)
}

// heads returns the current stream heads in seq (launch) order. The slice
// is the engine's scratch: valid until the next call.
func (g *engine) heads() []*kernelExec {
	out := g.headBuf[:0]
	for _, q := range g.queues {
		out = append(out, q[0])
	}
	slices.SortFunc(out, func(a, b *kernelExec) int { return cmp.Compare(a.seq, b.seq) })
	g.headBuf = out
	return out
}

// pop removes a fully admitted head from its stream queue.
func (g *engine) pop(e *kernelExec) {
	q := g.queues[e.streamID]
	if len(q) == 0 || q[0] != e {
		return
	}
	if len(q) == 1 {
		delete(g.queues, e.streamID)
	} else {
		g.queues[e.streamID] = q[1:]
	}
}

// drain advances the simulation until every enqueued kernel has completed.
// It returns an error only on an internal invariant violation.
func (g *engine) drain() error {
	for {
		g.admit()
		if len(g.cohorts) == 0 {
			// Nothing resident: either jump to the next arrival or stop.
			next := math.Inf(1)
			for _, q := range g.queues {
				if e := q[0]; e.depsDone() && e.issue > g.now && e.issue < next {
					next = e.issue
				}
			}
			if math.IsInf(next, 1) {
				if len(g.queues) > 0 {
					first := g.heads()[0]
					return fmt.Errorf("simgpu: engine stalled with %d streams waiting (first %q seq=%d)",
						len(g.queues), first.name, first.seq)
				}
				return nil
			}
			g.now = next
			continue
		}

		g.computeRates()

		// Next event: earliest cohort retirement or kernel arrival.
		t := math.Inf(1)
		for _, c := range g.cohorts {
			if f := g.finishEstimate(c); f < t {
				t = f
			}
		}
		for _, q := range g.queues {
			if e := q[0]; e.depsDone() && e.issue > g.now && e.issue < t {
				t = e.issue
			}
		}
		if math.IsInf(t, 1) || t < g.now-epsNS {
			return fmt.Errorf("simgpu: engine produced invalid next event time %v at now=%v", t, g.now)
		}
		if t < g.now {
			t = g.now
		}
		g.advance(t)
	}
}

// admit gives queue slots and SM residency to every waiting kernel that is
// ready, in launch order (the hardware block scheduler drains earlier grids
// first; Hyper-Q lets later kernels slip past only when the earlier ones
// cannot use the free resources).
func (g *engine) admit() {
	for _, e := range g.heads() {
		if !e.depsDone() || e.issue > g.now+epsNS {
			continue
		}
		if e.fixedDur > 0 {
			// DMA transfer: start immediately, retire after fixedDur.
			if !e.started {
				e.started = true
				e.start = g.now
				e.blocksLeft = 0
				e.activeCohorts++
				g.cohorts = append(g.cohorts, &cohort{exec: e, minEnd: g.now + e.fixedDur})
			}
			g.pop(e)
			continue
		}
		if !e.hasSlot {
			if g.runningSlots >= g.maxSlots {
				continue
			}
			e.hasSlot = true
			g.runningSlots++
		}
		if e.blocksLeft > 0 {
			g.admitBlocks(e)
		}
		if e.blocksLeft == 0 {
			g.pop(e)
			if e.activeCohorts == 0 {
				// Degenerate zero-work kernel admitted and finished
				// instantly.
				g.completeKernel(e)
			}
		}
	}
}

// admitBlocks places as many of e's remaining blocks as currently fit,
// spreading them evenly over SMs (the paper's model assumption), as one
// cohort.
func (g *engine) admitBlocks(e *kernelExec) {
	n := g.spec.SMCount
	fit, load := g.fit, g.load
	total := 0
	for s := 0; s < n; s++ {
		f := g.fitOn(s, e)
		fit[s] = f
		total += f
	}
	if total == 0 {
		return
	}
	a := e.blocksLeft
	if a > total {
		a = total
	}
	per := make([]int32, n)
	placed := 0
	// Water-filling: each block goes to the least-loaded SM that still has
	// room, which is how hardware block schedulers spread work and what
	// keeps the paper's "fill idle SMs" concurrency benefit observable.
	copy(load, g.smThreads)
	for placed < a {
		best := -1
		for s := 0; s < n; s++ {
			if fit[s] > 0 && (best < 0 || load[s] < load[best]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		fit[best]--
		per[best]++
		load[best] += e.threads
		placed++
	}
	if placed == 0 {
		return
	}
	for s := 0; s < n; s++ {
		if per[s] == 0 {
			continue
		}
		g.smThreads[s] += int(per[s]) * e.threads
		g.smBlocks[s] += int(per[s])
		g.smSmem[s] += int(per[s]) * e.smem
	}
	if !e.started {
		e.started = true
		e.start = g.now
	}
	e.blocksLeft -= placed
	e.activeCohorts++
	g.cohorts = append(g.cohorts, &cohort{
		exec:   e,
		blocks: placed,
		perSM:  per,
		remC:   float64(placed) * e.flopsPerBlock,
		remM:   float64(placed) * e.bytesPerBlock,
		minEnd: g.now + g.floorNS + e.extra,
	})
}

// fitOn returns how many more blocks of e fit on SM s right now.
func (g *engine) fitOn(s int, e *kernelExec) int {
	byBlocks := g.spec.MaxBlocksPerSM - g.smBlocks[s]
	if byBlocks <= 0 {
		return 0
	}
	byThreads := (g.spec.MaxThreadsPerSM - g.smThreads[s]) / e.threads
	if byThreads <= 0 {
		return 0
	}
	n := byBlocks
	if byThreads < n {
		n = byThreads
	}
	if e.smem > 0 {
		bySmem := (g.spec.SharedMemPerSM() - g.smSmem[s]) / e.smem
		if bySmem < n {
			n = bySmem
		}
	}
	if n < 0 {
		n = 0
	}
	return n
}

// computeRates assigns each cohort its compute and memory progress rates
// under the current residency (processor sharing; see DESIGN.md §5).
func (g *engine) computeRates() {
	cores := float64(g.spec.CoresPerSM)

	// Per-SM compute demand in resident threads, counting only cohorts that
	// still have arithmetic left.
	demand := g.demand
	clear(demand)
	for _, c := range g.cohorts {
		if c.remC <= 0 {
			continue
		}
		th := float64(c.exec.threads)
		for s, b := range c.perSM {
			if b > 0 {
				demand[s] += float64(b) * th
			}
		}
	}

	// Device-wide memory demand in resident threads.
	memThreads := 0.0
	for _, c := range g.cohorts {
		if c.remM <= 0 {
			continue
		}
		memThreads += float64(c.blocks * c.exec.threads)
	}
	memDenom := memThreads
	if memDenom < g.satThreads {
		memDenom = g.satThreads
	}

	for _, c := range g.cohorts {
		c.rateC, c.rateM = 0, 0
		th := float64(c.exec.threads)
		if c.remC > 0 {
			r := 0.0
			for s, b := range c.perSM {
				if b == 0 {
					continue
				}
				d := float64(b) * th
				// An SM runs at full throughput once resident-thread demand
				// covers its cores; below that, throughput scales with the
				// threads present. The demand of all co-resident cohorts
				// shares the SM proportionally.
				den := cores
				if demand[s] > cores {
					den = demand[s]
				}
				r += g.peakFlopsPerSMns * d / den
			}
			c.rateC = r
		}
		if c.remM > 0 {
			d := float64(c.blocks) * th
			c.rateM = g.bwBytesPerNS * d / memDenom
		}
	}
}

// finishEstimate returns the absolute time this cohort would retire if the
// current rates held.
func (g *engine) finishEstimate(c *cohort) float64 {
	dt := 0.0
	if c.remC > 0 {
		if c.rateC <= 0 {
			return math.Inf(1)
		}
		dt = c.remC / c.rateC
	}
	if c.remM > 0 {
		if c.rateM <= 0 {
			return math.Inf(1)
		}
		if m := c.remM / c.rateM; m > dt {
			dt = m
		}
	}
	t := g.now + dt
	if t < c.minEnd {
		t = c.minEnd
	}
	return t
}

// advance moves the clock to t, progresses all cohorts, retires finished
// ones, frees their resources and completes kernels whose last cohort
// retired.
func (g *engine) advance(t float64) {
	dt := t - g.now
	if dt < 0 {
		dt = 0
	}
	resident := 0
	for s := range g.smThreads {
		resident += g.smThreads[s]
	}
	g.threadNSIntegral += float64(resident) * dt

	for _, c := range g.cohorts {
		if c.remC > 0 {
			c.remC -= c.rateC * dt
			// Clamp both on an absolute epsilon and on a rate-relative one
			// (< 1e-3 ns of work left): floating-point cancellation can
			// leave residuals large in work units yet far below the clock
			// resolution, which would otherwise stall the event loop.
			if c.remC < epsNS || c.remC <= c.rateC*1e-3 {
				c.remC = 0
			}
		}
		if c.remM > 0 {
			c.remM -= c.rateM * dt
			if c.remM < epsNS || c.remM <= c.rateM*1e-3 {
				c.remM = 0
			}
		}
	}
	g.now = t

	kept := g.cohorts[:0]
	for _, c := range g.cohorts {
		if c.remC <= 0 && c.remM <= 0 && g.now+epsNS >= c.minEnd {
			g.retire(c)
		} else {
			kept = append(kept, c)
		}
	}
	g.cohorts = kept
}

func (g *engine) retire(c *cohort) {
	e := c.exec
	for s, b := range c.perSM {
		if b == 0 {
			continue
		}
		g.smThreads[s] -= int(b) * e.threads
		g.smBlocks[s] -= int(b)
		g.smSmem[s] -= int(b) * e.smem
	}
	g.flopsRetired += float64(c.blocks) * e.flopsPerBlock
	g.bytesRetired += float64(c.blocks) * e.bytesPerBlock
	e.activeCohorts--
	if e.activeCohorts == 0 && e.blocksLeft == 0 {
		g.completeKernel(e)
	}
}

func (g *engine) completeKernel(e *kernelExec) {
	e.done = true
	e.end = g.now
	if !e.started {
		e.started = true
		e.start = g.now
	}
	if e.hasSlot {
		e.hasSlot = false
		g.runningSlots--
	}
	if g.onComplete != nil {
		g.onComplete(e)
	}
}
