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
	// deps are the unfinished execs this one waits for, cleared when it
	// completes so a finished exec pins none of its predecessors; depBuf
	// backs the usual one or two (stream predecessor, default barrier).
	deps   []*kernelExec
	depBuf [2]*kernelExec

	flopsPerBlock float64
	bytesPerBlock float64
	threads       int // per block
	smem          int // per block

	hasSlot       bool
	started       bool
	done          bool
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

	sm []smState

	// queues holds issued-but-not-fully-admitted kernels as per-stream
	// FIFOs: only each stream's head can possibly run next (CUDA stream
	// semantics), which keeps every scheduling scan O(#streams) instead of
	// O(#outstanding kernels).
	queues       map[int][]*kernelExec
	cohorts      []*cohort
	free         []*cohort // retired cohorts, perSM zeroed, for newCohort to reuse
	runningSlots int
	maxSlots     int

	onComplete func(*kernelExec)

	// Per-event scratch, reused across calls: the stream heads in launch
	// order, admitBlocks' runs of like SMs, per-level SM counts and
	// last-level order, computeRates' per-SM demand.
	headBuf []*kernelExec
	runs    []smRun
	delta   []int
	order   []uint64
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
		sm:               make([]smState, spec.SMCount),
		delta:            make([]int, spec.MaxThreadsPerSM+1),
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
	clear(g.sm)
	clear(g.queues)
	g.cohorts = g.cohorts[:0]
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
				g.newCohort(e, 0).minEnd = g.now + e.fixedDur
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

// smState is one SM's residency: threads, blocks and shared-memory bytes.
type smState struct{ threads, blocks, smem int }

// smRun is a run [lo, hi) of neighbouring SMs with equal residency and what
// each can still take of the kernel being admitted: fit blocks, its free
// threads being lvl whole blocks' worth plus rem.
type smRun struct{ lo, hi, fit, lvl, rem int }

// admitBlocks places as many of e's remaining blocks as currently fit, as
// one cohort, each block on the least-loaded SM that still has room (ties to
// the lower index): how hardware block schedulers spread work, and what keeps
// the paper's "fill idle SMs" concurrency benefit observable. Every block
// adds the same e.threads, so that greedy order is the merge of the per-SM
// sequences load[s] + j·threads, j < fit[s], and the a blocks placed are its
// a smallest (resident threads, SM index) candidates. Cut each SM's free
// threads into levels of one block: an SM has exactly one candidate on each
// of the levels lvl, lvl-1, … lvl-fit+1, every candidate of a higher level
// precedes every one of a lower level, and within any level the order is
// (larger rem, lower index). So whole levels are placed at once, only the
// last, partial one is ordered, and neighbouring SMs with equal residency
// are handled as one run: the cost is O(SMs + levels) plus a sort of the
// last level's runs, whatever the block count, and the placement is the
// block-by-block one exactly.
func (g *engine) admitBlocks(e *kernelExec) {
	n, runs := len(g.sm), g.runs[:0]
	total, top := 0, 0
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && g.sm[hi] == g.sm[lo] {
			hi++
		}
		r := g.roomOn(lo, hi, e)
		// Each SM of the run has a candidate on the levels (lvl-fit, lvl].
		g.delta[r.lvl] += hi - lo
		g.delta[r.lvl-r.fit] -= hi - lo
		total += (hi - lo) * r.fit
		top = max(top, r.lvl)
		runs = append(runs, r)
		lo = hi
	}
	g.runs = runs
	if total == 0 {
		return
	}
	a := min(e.blocksLeft, total)
	// Whole levels from the top while they fit in a; level k takes the rest.
	whole, active, k := 0, 0, top
	for ; k > 0; k-- {
		active += g.delta[k]
		if whole+active > a {
			break
		}
		whole += active
	}
	clear(g.delta[:top+1])

	c := g.newCohort(e, n)
	order := g.order[:0] // the runs with a candidate on level k
	for i, r := range runs {
		if b := min(max(r.lvl-k, 0), r.fit); b > 0 {
			for s := r.lo; s < r.hi; s++ {
				g.occupy(c, s, b)
			}
		}
		if r.lvl >= k && r.lvl-r.fit < k {
			order = append(order, uint64(e.threads-1-r.rem)<<32|uint64(i))
		}
	}
	slices.Sort(order)
	g.order = order
	left := a - whole
	for _, key := range order {
		r := runs[uint32(key)]
		for s := r.lo; s < r.hi && left > 0; s++ {
			g.occupy(c, s, 1)
			left--
		}
	}
	if !e.started {
		e.started = true
		e.start = g.now
	}
	e.blocksLeft -= a
	c.blocks = a
	c.remC = float64(a) * e.flopsPerBlock
	c.remM = float64(a) * e.bytesPerBlock
	c.minEnd = g.now + g.floorNS + e.extra
}

// occupy moves b more blocks of c onto SM s; a negative b frees them.
func (g *engine) occupy(c *cohort, s, b int) {
	c.perSM[s] += int32(b)
	g.sm[s].threads += b * c.exec.threads
	g.sm[s].blocks += b
	g.sm[s].smem += b * c.exec.smem
}

// roomOn returns the room for e on each SM of the like run [lo, hi).
func (g *engine) roomOn(lo, hi int, e *kernelExec) smRun {
	free := g.spec.MaxThreadsPerSM - g.sm[lo].threads
	lvl := free / e.threads
	fit := min(lvl, g.spec.MaxBlocksPerSM-g.sm[lo].blocks)
	if e.smem > 0 {
		fit = min(fit, (g.spec.SharedMemPerSM()-g.sm[lo].smem)/e.smem)
	}
	return smRun{lo: lo, hi: hi, fit: max(fit, 0), lvl: lvl, rem: free - lvl*e.threads}
}

// newCohort makes e's next cohort resident, reusing a retired one. perSM has
// n zero entries: the SM count for blocks, 0 for a DMA transfer.
func (g *engine) newCohort(e *kernelExec, n int) *cohort {
	if len(g.free) == 0 {
		g.free = append(g.free, &cohort{})
	}
	c := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	if cap(c.perSM) < n {
		c.perSM = make([]int32, n)
	}
	*c = cohort{exec: e, perSM: c.perSM[:n]}
	e.activeCohorts++
	g.cohorts = append(g.cohorts, c)
	return c
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
	for s := range g.sm {
		resident += g.sm[s].threads
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
		if b != 0 {
			g.occupy(c, s, -int(b)) // leaves perSM zeroed for the next admission
		}
	}
	g.flopsRetired += float64(c.blocks) * e.flopsPerBlock
	g.bytesRetired += float64(c.blocks) * e.bytesPerBlock
	e.activeCohorts--
	if e.activeCohorts == 0 && e.blocksLeft == 0 {
		g.completeKernel(e)
	}
	c.exec = nil
	g.free = append(g.free, c)
}

func (g *engine) completeKernel(e *kernelExec) {
	e.done = true
	e.end = g.now
	e.deps, e.depBuf = nil, [2]*kernelExec{}
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
