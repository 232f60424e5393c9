package simgpu

import (
	"math"
	"slices"
)

// The drain memo (DESIGN.md §5): a drain's outcome from a drained engine is a
// pure function of its start state and its launches as the engine reads them,
// so it is kept per drain ordinal since reset and replayed when both repeat
// bit for bit. Only resets restart the clock: an engine never reset records
// nothing.

// memoLaunches bounds the launches an engine's slots hold, ~165 B each.
const memoLaunches = 1 << 15

// launchKey is what the engine reads of a launch, floats as bits; its
// dependencies' offsets follow in the slot's deps.
type launchKey struct {
	issue, flops, bytes, fixed, extra   uint64
	stream, threads, smem, blocks, deps int
}

// state is the clock and the accounting, as bits.
func (g *engine) state() [4]uint64 {
	b := math.Float64bits
	return [4]uint64{b(g.now), b(g.threadNSIntegral), b(g.flopsRetired), b(g.bytesRetired)}
}

// completion is an exec's offset in its segment, start and end.
type completion struct {
	off        int
	start, end float64
}

// drainSlot is the last segment drained at one ordinal; ok marks from, to
// and done as the outcome of exactly its launches.
type drainSlot struct {
	launches []launchKey
	deps     []int32
	from, to [4]uint64
	done     []completion
	ok       bool
}

// enqueue adds a launch to the segment the next drain runs and, from its
// first difference with the segment's slot on, records it there in place.
func (g *engine) enqueue(e *kernelExec) {
	e.off = len(g.seg)
	g.seg = append(g.seg, e)
	if e.off == 0 {
		g.match, g.depAt = true, 0
		if g.ord == len(g.slots) && g.wasReset && g.held < memoLaunches {
			g.slots = append(g.slots, drainSlot{})
		}
	}
	if g.ord >= len(g.slots) {
		return
	}
	s := &g.slots[g.ord]
	// Dependency order is immaterial to the engine; compare it canonical.
	slices.SortFunc(e.deps, func(a, b *kernelExec) int { return a.off - b.off })
	b := math.Float64bits
	k := launchKey{b(e.issue), b(e.flopsPerBlock), b(e.bytesPerBlock), b(e.fixedDur), b(e.extra),
		e.streamID, e.threads, e.smem, e.totalBlocks, len(e.deps)}
	same := g.match && e.off < len(s.launches) && s.launches[e.off] == k
	for i, d := range e.deps {
		same = same && s.deps[g.depAt+i] == int32(d.off)
	}
	if same {
		g.depAt += len(e.deps)
		return
	}
	if g.match {
		g.match, s.ok = false, false
		g.held -= len(s.launches) - e.off
		s.launches, s.deps = s.launches[:e.off], s.deps[:g.depAt]
	}
	if g.held >= memoLaunches || len(s.launches) != e.off {
		return // the slot stays short of the segment: not stored
	}
	g.held++
	s.launches = append(s.launches, k)
	for _, d := range e.deps {
		s.deps = append(s.deps, int32(d.off))
	}
	g.depAt += len(e.deps)
}

// drain completes the segment: replayed from its slot — each exec completed
// at its stored start and end, in order, through the simulation's path — or
// simulated and, unless that fails, stored. It returns an error only on an
// internal invariant violation.
func (g *engine) drain() error {
	seg, n := g.seg, len(g.seg)
	if n == 0 {
		return g.simulate()
	}
	var s *drainSlot
	if g.ord < len(g.slots) {
		s = &g.slots[g.ord]
	}
	g.ord++
	from, drained := g.state(), len(g.live) == 0 && len(g.cohorts) == 0
	g.done = g.done[:0]
	defer func() { clear(seg); g.seg = seg[:0] }()
	if s != nil && s.ok && g.match && len(s.launches) == n && s.from == from && drained {
		for _, c := range s.done {
			e := seg[c.off]
			e.started, e.start, g.now = true, c.start, c.end
			g.completeKernel(e)
		}
		f := math.Float64frombits
		g.now, g.threadNSIntegral, g.flopsRetired, g.bytesRetired = f(s.to[0]), f(s.to[1]), f(s.to[2]), f(s.to[3])
		g.replayed += int64(n)
		return nil
	}
	for _, e := range seg {
		g.queue(e)
	}
	err := g.simulate()
	if s != nil {
		if s.ok = err == nil && drained && len(s.launches) >= n; s.ok {
			g.held -= len(s.launches) - n
			s.launches, s.deps = s.launches[:n], s.deps[:g.depAt]
			s.from, s.to = from, g.state()
			s.done = append(s.done[:0], g.done...)
		}
	}
	return err
}
