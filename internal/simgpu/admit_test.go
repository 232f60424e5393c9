package simgpu

import (
	"math/rand"
	"slices"
	"testing"
)

// residency is one admission problem: the per-SM state a kernel's blocks
// meet, and the kernel's per-block footprint.
type residency struct {
	threads, blocks, smem []int // per SM
	tpb, smemPB, left     int   // of the kernel being admitted
}

// greedyPlacement is the reference block scheduler, the loop admitBlocks
// used to be: every block goes, one at a time, to the least-loaded SM that
// still has room, the lower index winning ties.
func greedyPlacement(spec DeviceSpec, r residency) []int32 {
	n := spec.SMCount
	fit := make([]int, n)
	total := 0
	for s := 0; s < n; s++ {
		f := min(spec.MaxBlocksPerSM-r.blocks[s], (spec.MaxThreadsPerSM-r.threads[s])/r.tpb)
		if r.smemPB > 0 {
			f = min(f, (spec.SharedMemPerSM()-r.smem[s])/r.smemPB)
		}
		fit[s] = max(f, 0)
		total += fit[s]
	}
	per := make([]int32, n)
	load := slices.Clone(r.threads)
	for placed := 0; placed < min(r.left, total); placed++ {
		best := -1
		for s := 0; s < n; s++ {
			if fit[s] > 0 && (best < 0 || load[s] < load[best]) {
				best = s
			}
		}
		fit[best]--
		per[best]++
		load[best] += r.tpb
	}
	return per
}

// perSM expands run-length runs into one value per SM.
func perSM[T any](n int, runs []T, span func(T) (lo, hi int)) []T {
	out := make([]T, n)
	for _, r := range runs {
		lo, hi := span(r)
		for s := lo; s < hi; s++ {
			out[s] = r
		}
	}
	return out
}

// checkResidency compares the engine's run-length residency with the
// per-SM reference: the runs must tile [0, SMCount) in order, be maximal,
// and expand to want; the resident-thread total must match too.
func checkResidency(t *testing.T, g *engine, want []smState, what string) {
	t.Helper()
	next, total := 0, 0
	for i, r := range g.res {
		if r.lo != next || r.hi <= r.lo || (i > 0 && g.res[i-1].st == r.st) {
			t.Fatalf("%s: residency runs %v do not tile the SMs in maximal runs", what, g.res)
		}
		next = r.hi
	}
	if next != len(want) {
		t.Fatalf("%s: residency runs %v cover %d of %d SMs", what, g.res, next, len(want))
	}
	for s, r := range perSM(len(want), g.res, func(r span) (int, int) { return r.lo, r.hi }) {
		if r.st != want[s] {
			t.Fatalf("%s: SM %d residency %+v, want %+v", what, s, r.st, want[s])
		}
		total += want[s].threads
	}
	if g.resident != total {
		t.Fatalf("%s: resident threads %d, want %d", what, g.resident, total)
	}
}

// setResidency loads per-SM states into the engine as runs.
func setResidency(g *engine, states []smState) {
	g.res, g.resident = g.res[:0], 0
	for s, st := range states {
		if n := len(g.res); n > 0 && g.res[n-1].st == st {
			g.res[n-1].hi++
		} else {
			g.res = append(g.res, span{s, s + 1, st})
		}
		g.resident += st.threads
	}
}

// admitChecked runs the engine's admitBlocks for a kernel of r's footprint
// on the engine's current residency (ref, per SM), compares the cohort's
// placement and the residency it leaves with the block-by-block reference,
// and returns the cohort (nil when nothing fits) with ref updated.
func admitChecked(t *testing.T, g *engine, ref []smState, tpb, smemPB, left int, flops float64) *cohort {
	t.Helper()
	r := residency{tpb: tpb, smemPB: smemPB, left: left}
	for _, st := range ref {
		r.threads = append(r.threads, st.threads)
		r.blocks = append(r.blocks, st.blocks)
		r.smem = append(r.smem, st.smem)
	}
	want := greedyPlacement(g.spec, r)
	e := &kernelExec{threads: tpb, smem: smemPB, blocksLeft: left, totalBlocks: left, flopsPerBlock: flops}
	before := len(g.cohorts)
	g.admitBlocks(e)

	placed := 0
	for _, b := range want {
		placed += int(b)
	}
	if placed == 0 {
		if len(g.cohorts) != before {
			t.Fatalf("%+v: nothing fits, yet a cohort was admitted", r)
		}
		return nil
	}
	if len(g.cohorts) != before+1 {
		t.Fatalf("%+v: %d cohorts admitted, want 1", r, len(g.cohorts)-before)
	}
	c := g.cohorts[before]
	got := make([]int32, len(ref))
	for i, p := range c.place {
		if p.b <= 0 || p.hi <= p.lo || (i > 0 && (p.lo < c.place[i-1].hi || p.lo == c.place[i-1].hi && p.b == c.place[i-1].b)) {
			t.Fatalf("%+v: placement %v is not ascending maximal runs", r, c.place)
		}
		for s := p.lo; s < p.hi; s++ {
			got[s] = int32(p.b)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%+v:\n got %v\nwant %v", r, got, want)
	}
	if c.blocks != placed || e.blocksLeft != left-placed {
		t.Fatalf("%+v: cohort of %d blocks, %d left; want %d placed", r, c.blocks, e.blocksLeft, placed)
	}
	for _, d := range g.delta {
		if d != 0 {
			t.Fatalf("%+v: level scratch left dirty", r)
		}
	}
	dem := 0
	if flops > 0 {
		dem = tpb
	}
	for s, b := range want {
		b := int(b)
		ref[s] = smState{ref[s].threads + b*tpb, ref[s].blocks + b, ref[s].smem + b*smemPB, ref[s].demand + b*dem}
	}
	checkResidency(t, g, ref, "after admission")
	return c
}

// retireChecked retires c (first ending its arithmetic, as advance does,
// when computeDone) and checks the residency against ref updated by hand.
func retireChecked(t *testing.T, g *engine, ref []smState, c *cohort, computeDone bool) {
	t.Helper()
	e := c.exec
	per := perSM(len(ref), c.place, func(p placed) (int, int) { return p.lo, p.hi })
	if computeDone && c.demand {
		c.demand = false
		g.shift(c, smState{demand: -e.threads})
		for s, p := range per {
			ref[s].demand -= p.b * e.threads
		}
		checkResidency(t, g, ref, "after compute done")
	}
	dem := 0
	if c.demand {
		dem = e.threads
	}
	g.cohorts = slices.DeleteFunc(g.cohorts, func(x *cohort) bool { return x == c })
	g.retire(c)
	for s, p := range per {
		ref[s] = smState{ref[s].threads - p.b*e.threads, ref[s].blocks - p.b, ref[s].smem - p.b*e.smem, ref[s].demand - p.b*dem}
	}
	checkResidency(t, g, ref, "after retirement")
}

// checkAdmission admits one kernel of r's footprint onto r's residency,
// checks it against the reference and retires it again.
func checkAdmission(t *testing.T, g *engine, r residency) {
	t.Helper()
	ref := make([]smState, g.spec.SMCount)
	for s := range ref {
		ref[s] = smState{threads: r.threads[s], blocks: r.blocks[s], smem: r.smem[s]}
	}
	setResidency(g, ref)
	g.cohorts = g.cohorts[:0]
	if c := admitChecked(t, g, ref, r.tpb, r.smemPB, r.left, 1); c != nil {
		retireChecked(t, g, ref, c, false)
	}
}

// TestAdmitBlocksMatchesGreedy is the differential test for the closed-form
// block admission and the run-length residency it works on: on every
// catalog device, the rows that exercise each regime by hand and 20 000
// random residencies must be placed exactly as the block-by-block reference
// places them, and after every admission, compute-done transition and
// retirement the residency runs must expand to the per-SM reference.
func TestAdmitBlocksMatchesGreedy(t *testing.T) {
	for _, spec := range []DeviceSpec{TeslaK40C, TeslaP100, TitanXP} {
		n := spec.SMCount
		g := newEngine(spec, nil)
		uniform := func(v int) []int {
			out := make([]int, n)
			for s := range out {
				out[s] = v
			}
			return out
		}
		with := func(base []int, s, v int) []int {
			out := slices.Clone(base)
			out[s] = v
			return out
		}
		full := spec.MaxThreadsPerSM

		rows := map[string]residency{
			"empty device, fewer blocks than SMs": {uniform(0), uniform(0), uniform(0), 256, 0, n - 3},
			"empty device, 2.5 rounds":            {uniform(0), uniform(0), uniform(0), 128, 0, 2*n + n/2},
			"empty device, a == total":            {uniform(0), uniform(0), uniform(0), 256, 0, 5000},
			"empty device, one block":             {uniform(0), uniform(0), uniform(0), 32, 0, 1},
			"single free SM":                      {with(uniform(full), n/2, full-512), uniform(1), uniform(0), 128, 0, 9},
			"nothing fits":                        {uniform(full), uniform(1), uniform(0), 32, 0, 4},
			"block limit binds":                   {uniform(0), uniform(spec.MaxBlocksPerSM - 1), uniform(0), 32, 0, 3 * n},
			"shared memory binds":                 {uniform(0), uniform(0), uniform(spec.SharedMemPerSM() - 8192), 64, 4096, 3 * n},
			"ties across unequal fits":            {with(uniform(256), 0, 256), with(uniform(2), 1, spec.MaxBlocksPerSM-1), uniform(0), 256, 0, 2 * n},
			"one SM a level behind":               {with(uniform(512), n-1, 0), uniform(2), uniform(0), 256, 0, n + 1},
			"misaligned loads":                    {with(with(uniform(96), 1, 32), 2, 160), uniform(1), uniform(0), 128, 0, n + 2},
			"remainder ordered by load":           {with(with(uniform(64), n-1, 0), n-2, 32), uniform(1), uniform(0), 96, 0, 2},
		}
		for name, r := range rows {
			t.Run(spec.Name+"/"+name, func(t *testing.T) { checkAdmission(t, g, r) })
		}

		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 20000; i++ {
			// Residencies as earlier admissions leave them: a few distinct
			// resident kernels, each on a run or a scatter of SMs, some
			// still computing; every third one with loads off the warp grid.
			ref := make([]smState, n)
			grain := 32
			if i%3 == 0 {
				grain = 1
			}
			for k := rng.Intn(5); k > 0; k-- {
				th, sm, computing := grain*(1+rng.Intn(1024/grain)), 4096*rng.Intn(3), rng.Intn(2) == 0
				lo, hi, every := rng.Intn(n), 1+rng.Intn(n), 1+rng.Intn(3)
				for s := lo; s < hi; s += every {
					for b := rng.Intn(4); b > 0; b-- {
						if st := ref[s]; st.threads+th <= spec.MaxThreadsPerSM && st.blocks < spec.MaxBlocksPerSM && st.smem+sm <= spec.SharedMemPerSM() {
							ref[s] = smState{st.threads + th, st.blocks + 1, st.smem + sm, st.demand}
							if computing {
								ref[s].demand += th
							}
						}
					}
				}
			}
			setResidency(g, ref)
			g.cohorts = g.cohorts[:0]
			// One to three kernels admitted on top of each other, then
			// retired in random order, some after their arithmetic ends.
			for k := 1 + rng.Intn(3); k > 0; k-- {
				left := 1 + rng.Intn(5000)
				if i%4 == 0 {
					left = 1 + rng.Intn(2*n)
				}
				admitChecked(t, g, ref, 32*(1+rng.Intn(32)), 4096*rng.Intn(3), left, float64(rng.Intn(2)))
			}
			for len(g.cohorts) > 0 {
				retireChecked(t, g, ref, g.cohorts[rng.Intn(len(g.cohorts))], rng.Intn(2) == 0)
			}
		}
	}
}

// TestCompletedExecsPinNoPredecessors: a completed exec drops its
// dependency edges and goes back to the engine, which hands it to a later
// launch; a stream tail still naming it then stops matching, so it is no
// dependency of that stream's next kernel.
func TestCompletedExecsPinNoPredecessors(t *testing.T) {
	d := NewDevice(TeslaP100)
	var streams []*Stream
	for i := 0; i < 4; i++ {
		streams = append(streams, mustStream(d))
	}
	const perRound = 34
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			launchOK(t, d, computeKernel("k", 64, 256, 1e6), streams[i%len(streams)])
		}
		launchOK(t, d, memKernel("barrier", 8, 128, 1e5), nil)
		launchOK(t, d, computeKernel("after", 8, 128, 1e5), streams[0])
		if _, err := d.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if len(d.eng.execs) != perRound {
			t.Fatalf("round %d: the engine owns %d execs, want the %d of one drain", round, len(d.eng.execs), perRound)
		}
	}
	for _, e := range d.eng.execs {
		if !e.done || len(e.deps) != 0 || slices.ContainsFunc(e.deps[:cap(e.deps)], func(p *kernelExec) bool { return p != nil }) {
			t.Errorf("%s seq=%d recycled undone or still pinning predecessors", e.name, e.seq)
		}
	}
	for _, c := range d.eng.free {
		if c.exec != nil {
			t.Errorf("recycled cohort still pins %s", c.exec.name)
		}
	}

	// A stream's completed tail exec goes to the next launch, a long
	// kernel on another stream; a short kernel on the first stream must not
	// wait for it.
	d = NewDevice(TeslaP100)
	s1, s2 := mustStream(d), mustStream(d)
	launchOK(t, d, computeKernel("first", 1, 64, 1e3), s1)
	if _, err := d.Synchronize(); err != nil {
		t.Fatal(err)
	}
	launchOK(t, d, computeKernel("long", 64, 256, 1e10), s2)
	if s2.tail.e != s1.tail.e || s1.tail.pending() {
		t.Fatal("the launch did not reuse the completed tail exec, or the stale tail still matches")
	}
	launchOK(t, d, computeKernel("short", 1, 64, 1e3), s1)
	recs := traceOK(t, d)
	if len(recs) != 3 || recs[1].Name != "short" || recs[1].Start != recs[1].Queued {
		t.Fatalf("short kernel waited for the recycled exec's new launch: %v", recs)
	}
}
