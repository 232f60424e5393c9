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

// checkAdmission runs the engine's admitBlocks on r, compares the cohort's
// per-SM placement and the residency it leaves with the reference, and
// retires the cohort again.
func checkAdmission(t *testing.T, g *engine, r residency) {
	t.Helper()
	want := greedyPlacement(g.spec, r)
	for s := range g.sm {
		g.sm[s] = smState{r.threads[s], r.blocks[s], r.smem[s]}
	}
	g.cohorts = g.cohorts[:0]
	e := &kernelExec{threads: r.tpb, smem: r.smemPB, blocksLeft: r.left, totalBlocks: r.left}
	g.admitBlocks(e)

	placed := 0
	for _, b := range want {
		placed += int(b)
	}
	if placed == 0 {
		if len(g.cohorts) != 0 {
			t.Fatalf("%+v: nothing fits, yet a cohort was admitted", r)
		}
		return
	}
	if len(g.cohorts) != 1 {
		t.Fatalf("%+v: %d cohorts admitted, want 1", r, len(g.cohorts))
	}
	c := g.cohorts[0]
	if !slices.Equal(c.perSM, want) {
		t.Fatalf("%+v:\n got %v\nwant %v", r, c.perSM, want)
	}
	if c.blocks != placed || e.blocksLeft != r.left-placed {
		t.Fatalf("%+v: cohort of %d blocks, %d left; want %d placed", r, c.blocks, e.blocksLeft, placed)
	}
	for s, b := range want {
		if g.sm[s] != (smState{r.threads[s] + int(b)*r.tpb, r.blocks[s] + int(b), r.smem[s] + int(b)*r.smemPB}) {
			t.Fatalf("%+v: SM %d residency not updated by its %d blocks", r, s, b)
		}
	}
	for _, d := range g.delta {
		if d != 0 {
			t.Fatalf("%+v: level scratch left dirty", r)
		}
	}
	g.retire(c)
	for s := range g.sm {
		if g.sm[s] != (smState{r.threads[s], r.blocks[s], r.smem[s]}) || c.perSM[s] != 0 {
			t.Fatalf("%+v: retiring the cohort did not undo its admission on SM %d", r, s)
		}
	}
}

// TestAdmitBlocksMatchesGreedy is the differential test for the closed-form
// block admission: on every catalog device, the rows that exercise each
// regime by hand and 20 000 random residencies must be placed exactly as
// the block-by-block reference places them.
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
			r := residency{
				threads: make([]int, n), blocks: make([]int, n), smem: make([]int, n),
				tpb:    32 * (1 + rng.Intn(32)),
				smemPB: 4096 * rng.Intn(3),
				left:   1 + rng.Intn(5000),
			}
			if i%4 == 0 {
				r.left = 1 + rng.Intn(2*n)
			}
			// Residencies as earlier admissions leave them: a few distinct
			// resident kernels, each on a run or a scatter of SMs; every
			// third one with loads off the warp grid.
			grain := 32
			if i%3 == 0 {
				grain = 1
			}
			for k := rng.Intn(5); k > 0; k-- {
				th, sm := grain*(1+rng.Intn(1024/grain)), 4096*rng.Intn(3)
				lo, hi, every := rng.Intn(n), 1+rng.Intn(n), 1+rng.Intn(3)
				for s := lo; s < hi; s += every {
					for b := rng.Intn(4); b > 0; b-- {
						if r.threads[s]+th <= spec.MaxThreadsPerSM && r.blocks[s] < spec.MaxBlocksPerSM && r.smem[s]+sm <= spec.SharedMemPerSM() {
							r.threads[s] += th
							r.blocks[s]++
							r.smem[s] += sm
						}
					}
				}
			}
			checkAdmission(t, g, r)
		}
	}
}

// TestCompletedExecsPinNoPredecessors: a completed exec drops its
// dependency edges, so what stays reachable from a stream tail after a
// barrier is that one exec and not the chain of launches behind it.
func TestCompletedExecsPinNoPredecessors(t *testing.T) {
	d := NewDevice(TeslaP100)
	var streams []*Stream
	for i := 0; i < 4; i++ {
		streams = append(streams, mustStream(d))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			launchOK(t, d, computeKernel("k", 64, 256, 1e6), streams[i%len(streams)])
		}
		launchOK(t, d, memKernel("barrier", 8, 128, 1e5), nil)
		launchOK(t, d, computeKernel("after", 8, 128, 1e5), streams[0])
	}
	if _, err := d.Synchronize(); err != nil {
		t.Fatal(err)
	}
	reachable := 0
	var walk func(e *kernelExec)
	walk = func(e *kernelExec) {
		reachable++
		if !e.done {
			t.Errorf("%s seq=%d not done after Synchronize", e.name, e.seq)
		}
		if len(e.deps) != 0 || e.depBuf != [2]*kernelExec{} {
			t.Errorf("%s seq=%d still pins %d predecessors", e.name, e.seq, len(e.deps))
		}
		for _, p := range e.deps {
			walk(p)
		}
	}
	for _, s := range append(streams, d.def) {
		walk(s.tail)
	}
	if reachable != len(streams)+1 {
		t.Errorf("%d execs reachable from the stream tails, want one per stream", reachable)
	}
	for _, c := range d.eng.free {
		if c.exec != nil {
			t.Errorf("recycled cohort still pins %s", c.exec.name)
		}
	}
}
