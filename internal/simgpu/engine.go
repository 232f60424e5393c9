package simgpu

import (
	"fmt"
	"math"
	"slices"
)

// timing epsilon in nanoseconds: completions within this window coincide.
const epsNS = 1e-6

// kernelExec is one launched kernel making its way through the simulated
// device: queued behind stream predecessors and default-stream barriers,
// waiting for a hardware queue slot, then admitted to SMs in block cohorts.
// Execs are engine-owned: a completed one is recycled by the next launch, so
// a reference kept past completion is an execRef.
type kernelExec struct {
	name string
	tag  string
	cfg  LaunchConfig
	seq  int

	streamID int

	issue float64 // host time the launch call completed (ns)
	// deps are the unfinished execs this one waits for (stream predecessor,
	// default-stream barrier), cleared when it completes; the buffer stays
	// with the exec for its next launch.
	deps []*kernelExec

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

// depsDone reports whether every dependency has completed, dropping the
// completed ones from the end of the list so a ready exec answers at once.
func (e *kernelExec) depsDone() bool {
	for n := len(e.deps); n > 0; n-- {
		if !e.deps[n-1].done {
			return false
		}
		e.deps[n-1] = nil
		e.deps = e.deps[:n-1]
	}
	return true
}

// execRef names one launch: it stops matching once its exec is recycled.
type execRef struct {
	e   *kernelExec
	seq int
}

// pending reports whether the referenced launch has yet to complete.
func (r execRef) pending() bool { return r.e != nil && r.e.seq == r.seq && !r.e.done }

// cohort is a set of homogeneous blocks of one kernel admitted together and
// retiring together. place holds where they sit: ascending runs of SMs each
// holding the same number of them.
type cohort struct {
	exec   *kernelExec
	blocks int
	place  []placed
	// demand: its threads still count in its SMs' compute demand (it has
	// arithmetic left).
	demand bool

	remC float64 // remaining effective FLOPs
	remM float64 // remaining effective bytes

	rateC float64 // FLOPs per ns under the current residency
	rateM float64 // bytes per ns under the current residency

	minEnd float64 // latency floor: cohort cannot retire before this time
}

// placed is a run [lo, hi) of SMs each holding b of a cohort's blocks.
type placed struct{ lo, hi, b int }

// streamQueue is one stream's FIFO of issued, not fully admitted kernels;
// buf is reused once the queue drains.
type streamQueue struct {
	buf  []*kernelExec
	head int
}

// engine is the discrete-event core. It is not safe for concurrent use; the
// owning Device serializes access.
type engine struct {
	spec DeviceSpec

	now float64 // device timeline, ns

	// res is the SMs' residency as maximal runs of equal neighbours in
	// ascending order; resident is its thread total.
	res      []span
	resBuf   []span
	resident int

	// queues holds issued-but-not-fully-admitted kernels as per-stream FIFOs
	// indexed by stream id, live the ids of the non-empty ones in their
	// heads' launch order: only each stream's head can possibly run next
	// (CUDA stream semantics), which keeps every scheduling scan
	// O(#streams) instead of O(#outstanding kernels).
	queues       []streamQueue
	live         []int
	cohorts      []*cohort
	free         []*cohort     // retired cohorts, for newCohort to reuse
	execs        []*kernelExec // completed execs, for newExec to reuse
	runningSlots int
	maxSlots     int

	onComplete func(*kernelExec)

	// Per-event scratch, reused across calls: the stream heads in launch
	// order, admitBlocks' room per residency run, per-level SM counts and
	// last-level order.
	headBuf []*kernelExec
	runs    []smRun
	delta   []int
	order   []uint64

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
		res:              []span{{hi: spec.SMCount}},
		delta:            make([]int, spec.MaxThreadsPerSM+1),
		maxSlots:         spec.MaxConcurrentKernels(),
		onComplete:       onComplete,
		peakFlopsPerSMns: spec.PeakFlopsPerSM() * 1e-9,
		bwBytesPerNS:     spec.MemBandwidth() * 1e-9,
		satThreads:       spec.MemSaturationOccupancy * float64(spec.SMCount*spec.MaxThreadsPerSM),
		floorNS:          float64(spec.KernelLatencyFloor.Nanoseconds()),
	}
}

// reset zeroes the clock and the accounting of a drained engine (no queued
// kernel, no resident cohort).
func (g *engine) reset() {
	g.now = 0
	g.threadNSIntegral = 0
	g.flopsRetired = 0
	g.bytesRetired = 0
}

// newExec copies x into an engine-owned exec, recycling a completed one and
// its dependency buffer.
func (g *engine) newExec(x *kernelExec) *kernelExec {
	n := len(g.execs)
	if n == 0 {
		e := new(kernelExec)
		*e = *x
		return e
	}
	e := g.execs[n-1]
	g.execs = g.execs[:n-1]
	deps := e.deps
	*e = *x
	e.deps = deps
	return e
}

// enqueue registers a launched kernel. Launches arrive in seq order, so one
// that becomes its stream's head sorts last in live.
func (g *engine) enqueue(e *kernelExec) {
	e.blocksLeft = e.totalBlocks
	if e.streamID >= len(g.queues) {
		g.queues = append(g.queues, make([]streamQueue, e.streamID+1-len(g.queues))...)
	}
	q := &g.queues[e.streamID]
	if len(q.buf) == 0 {
		g.live = append(g.live, e.streamID)
	}
	q.buf = append(q.buf, e)
}

// head returns the first queued kernel of a live stream.
func (g *engine) head(id int) *kernelExec {
	q := &g.queues[id]
	return q.buf[q.head]
}

// heads returns the current stream heads in seq (launch) order. The slice
// is the engine's scratch: valid until the next call.
func (g *engine) heads() []*kernelExec {
	out := g.headBuf[:0]
	for _, id := range g.live {
		out = append(out, g.head(id))
	}
	g.headBuf = out
	return out
}

// pop removes a fully admitted head from its stream queue, keeping live in
// launch order of the heads: the stream's next head, launched later, moves
// back past the heads launched before it.
func (g *engine) pop(e *kernelExec) {
	id := e.streamID
	q := &g.queues[id]
	if len(q.buf) == 0 || q.buf[q.head] != e {
		return
	}
	q.buf[q.head] = nil
	i := slices.Index(g.live, id)
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
		g.live = slices.Delete(g.live, i, i+1)
		return
	}
	for seq := q.buf[q.head].seq; i+1 < len(g.live) && g.head(g.live[i+1]).seq < seq; i++ {
		g.live[i] = g.live[i+1]
	}
	g.live[i] = id
}

// nextArrival returns the earliest issue time after now among ready stream
// heads, or +Inf.
func (g *engine) nextArrival() float64 {
	next := math.Inf(1)
	for _, id := range g.live {
		if e := g.head(id); e.depsDone() && e.issue > g.now && e.issue < next {
			next = e.issue
		}
	}
	return next
}

// drain advances the simulation until every enqueued kernel has completed.
// It returns an error only on an internal invariant violation.
func (g *engine) drain() error {
	for {
		g.admit()
		if len(g.cohorts) == 0 {
			// Nothing resident: either jump to the next arrival or stop.
			next := g.nextArrival()
			if math.IsInf(next, 1) {
				if len(g.live) > 0 {
					first := g.heads()[0]
					return fmt.Errorf("simgpu: engine stalled with %d streams waiting (first %q seq=%d)",
						len(g.live), first.name, first.seq)
				}
				return nil
			}
			g.now = next
			continue
		}

		g.computeRates()

		// Next event: earliest cohort retirement or kernel arrival.
		t := g.nextArrival()
		for _, c := range g.cohorts {
			if f := g.finishEstimate(c); f < t {
				t = f
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
				g.newCohort(e).minEnd = g.now + e.fixedDur
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

// smState is one SM's residency: threads, blocks and shared-memory bytes,
// and demand, the threads of its cohorts that still have arithmetic left.
type smState struct{ threads, blocks, smem, demand int }

// span is a run [lo, hi) of neighbouring SMs in the same state.
type span struct {
	lo, hi int
	st     smState
}

// smRun is a residency run [lo, hi) and what each of its SMs can still take
// of the kernel being admitted: fit blocks, its free threads being lvl whole
// blocks' worth plus rem; extra is how many of its first SMs take one block
// of the last, partial level.
type smRun struct{ lo, hi, fit, lvl, rem, extra int }

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
// last, partial one is ordered, and each run of equal residency is handled
// as one: the cost is O(runs + levels) plus a sort of the last level's runs,
// whatever the block or SM count, and the placement is the block-by-block
// one exactly.
func (g *engine) admitBlocks(e *kernelExec) {
	runs := g.runs[:0]
	total, top := 0, 0
	for _, sp := range g.res {
		r := g.roomOn(sp, e)
		// Each SM of the run has a candidate on the levels (lvl-fit, lvl].
		g.delta[r.lvl] += r.hi - r.lo
		g.delta[r.lvl-r.fit] -= r.hi - r.lo
		total += (r.hi - r.lo) * r.fit
		top = max(top, r.lvl)
		runs = append(runs, r)
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

	// The runs with a candidate on level k share its a-whole blocks in
	// (larger rem, lower index) order, each run's lowest SMs first.
	order := g.order[:0]
	for i, r := range runs {
		if r.lvl >= k && r.lvl-r.fit < k {
			order = append(order, uint64(e.threads-1-r.rem)<<32|uint64(i))
		}
	}
	slices.Sort(order)
	g.order = order
	left := a - whole
	for _, key := range order {
		r := &runs[uint32(key)]
		r.extra = min(left, r.hi-r.lo)
		left -= r.extra
	}

	c := g.newCohort(e)
	for _, r := range runs {
		b := min(max(r.lvl-k, 0), r.fit)
		c.place = appendPlaced(c.place, placed{r.lo, r.lo + r.extra, b + 1})
		c.place = appendPlaced(c.place, placed{r.lo + r.extra, r.hi, b})
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
	c.demand = c.remC > 0
	u := smState{threads: e.threads, blocks: 1, smem: e.smem}
	if c.demand {
		u.demand = e.threads
	}
	g.shift(c, u)
}

// appendPlaced appends a non-empty run to an ascending placement, merging it
// into an adjacent run of the same block count.
func appendPlaced(p []placed, r placed) []placed {
	if r.lo == r.hi || r.b == 0 {
		return p
	}
	if n := len(p); n > 0 && p[n-1].hi == r.lo && p[n-1].b == r.b {
		p[n-1].hi = r.hi
		return p
	}
	return append(p, r)
}

// shift adds b·u to the state of every SM on which c holds b blocks: one
// merge of the residency runs with c's placement runs, neighbours left
// equal joined again.
func (g *engine) shift(c *cohort, u smState) {
	out, p := g.resBuf[:0], c.place
	for _, r := range g.res {
		for lo := r.lo; lo < r.hi; {
			for len(p) > 0 && p[0].hi <= lo {
				p = p[1:]
			}
			sp := span{lo, r.hi, r.st}
			if len(p) > 0 && p[0].lo < r.hi {
				if p[0].lo > lo {
					sp.hi = p[0].lo
				} else {
					b := p[0].b
					sp.hi = min(r.hi, p[0].hi)
					sp.st = smState{sp.st.threads + b*u.threads, sp.st.blocks + b*u.blocks,
						sp.st.smem + b*u.smem, sp.st.demand + b*u.demand}
				}
			}
			if n := len(out); n > 0 && out[n-1].st == sp.st {
				out[n-1].hi = sp.hi
			} else {
				out = append(out, sp)
			}
			lo = sp.hi
		}
	}
	g.res, g.resBuf = out, g.res
	g.resident += c.blocks * u.threads
}

// roomOn returns the room for e on each SM of a residency run.
func (g *engine) roomOn(sp span, e *kernelExec) smRun {
	free := g.spec.MaxThreadsPerSM - sp.st.threads
	lvl := free / e.threads
	fit := min(lvl, g.spec.MaxBlocksPerSM-sp.st.blocks)
	if e.smem > 0 {
		fit = min(fit, (g.spec.SharedMemPerSM()-sp.st.smem)/e.smem)
	}
	return smRun{lo: sp.lo, hi: sp.hi, fit: max(fit, 0), lvl: lvl, rem: free - lvl*e.threads}
}

// newCohort makes e's next cohort resident, reusing a retired one and its
// placement buffer.
func (g *engine) newCohort(e *kernelExec) *cohort {
	if len(g.free) == 0 {
		g.free = append(g.free, &cohort{})
	}
	c := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	*c = cohort{exec: e, place: c.place[:0]}
	e.activeCohorts++
	g.cohorts = append(g.cohorts, c)
	return c
}

// computeRates assigns each cohort its compute and memory progress rates
// under the current residency (processor sharing; see DESIGN.md §5).
func (g *engine) computeRates() {
	cores := float64(g.spec.CoresPerSM)

	// Device-wide memory demand in resident threads.
	memThreads := 0
	for _, c := range g.cohorts {
		if c.remM > 0 {
			memThreads += c.blocks * c.exec.threads
		}
	}
	memDenom := max(float64(memThreads), g.satThreads)

	for _, c := range g.cohorts {
		c.rateC, c.rateM = 0, 0
		th := float64(c.exec.threads)
		if c.remC > 0 {
			r, j := 0.0, 0
			for _, p := range c.place {
				d := float64(p.b) * th
				for s := p.lo; s < p.hi; {
					for g.res[j].hi <= s {
						j++
					}
					// An SM runs at full throughput once resident-thread
					// demand covers its cores; below that, throughput scales
					// with the threads present. The demand of all co-resident
					// cohorts shares the SM proportionally.
					den := cores
					if dm := float64(g.res[j].st.demand); dm > cores {
						den = dm
					}
					// Every SM of the run adds the same term, one addition per
					// SM: the ascending-SM sum a per-SM loop makes.
					term := g.peakFlopsPerSMns * d / den
					for hi := min(p.hi, g.res[j].hi); s < hi; s++ {
						r += term
					}
				}
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
	g.threadNSIntegral += float64(g.resident) * dt

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
			continue
		}
		if c.demand && c.remC <= 0 {
			// Arithmetic done: its threads leave the SMs' compute demand.
			c.demand = false
			g.shift(c, smState{demand: -c.exec.threads})
		}
		kept = append(kept, c)
	}
	g.cohorts = kept
}

func (g *engine) retire(c *cohort) {
	e := c.exec
	u := smState{threads: -e.threads, blocks: -1, smem: -e.smem}
	if c.demand {
		u.demand = -e.threads
	}
	g.shift(c, u)
	g.flopsRetired += float64(c.blocks) * e.flopsPerBlock
	g.bytesRetired += float64(c.blocks) * e.bytesPerBlock
	e.activeCohorts--
	if e.activeCohorts == 0 && e.blocksLeft == 0 {
		g.completeKernel(e)
	}
	c.exec = nil
	g.free = append(g.free, c)
}

// completeKernel stamps e's end, reports it and recycles it: a completed
// exec pins none of its predecessors.
func (g *engine) completeKernel(e *kernelExec) {
	e.done = true
	e.end = g.now
	clear(e.deps)
	e.deps = e.deps[:0]
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
	g.execs = append(g.execs, e)
}
