package data

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostpool"
)

// tinySpec is small enough that identity tests cross several epoch
// boundaries (and hence reshuffles) in a few dozen batches.
var tinySpec = Spec{Name: "tiny", TrainImages: 30, TestImages: 12, Channels: 2, Height: 6, Width: 6, Classes: 3}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrefetchBitIdentityIterator: the prefetched stream equals the serial
// Next stream bit for bit, across multiple epoch/reshuffle boundaries.
func TestPrefetchBitIdentityIterator(t *testing.T) {
	serialIt := NewIterator(Synthetic(tinySpec, 42), TrainSplit, 4, 7)
	pf := NewPrefetcher(NewIterator(Synthetic(tinySpec, 42), TrainSplit, 4, 7), Options{Pool: hostpool.New(3)})
	defer pf.Close()

	size := tinySpec.Channels * tinySpec.Height * tinySpec.Width
	wantData := make([]float32, 4*size)
	wantLabels := make([]float32, 4)
	for b := 0; b < 25; b++ { // 30/4 per epoch → ≥3 epochs
		serialIt.Next(wantData, wantLabels)
		got := pf.Next()
		if !equalF32(got.Planes[0], wantData) {
			t.Fatalf("batch %d: prefetched data diverged from serial", b)
		}
		if !equalF32(got.Labels, wantLabels) {
			t.Fatalf("batch %d: prefetched labels diverged from serial", b)
		}
		pf.Recycle(got)
	}
	if serialIt.Epoch() < 3 {
		t.Fatalf("test did not cross epochs: epoch=%d", serialIt.Epoch())
	}
}

// TestPrefetchBitIdentityCropped: same contract for the cropped-iterator
// shape (CaffeNet's 227×227 path, shrunk).
func TestPrefetchBitIdentityCropped(t *testing.T) {
	spec := Spec{Name: "tinycrop", TrainImages: 20, TestImages: 5, Channels: 3, Height: 8, Width: 8, Classes: 4}
	serialIt := NewCroppedIterator(Synthetic(spec, 5), TrainSplit, 3, 5, 5, 9)
	pf := NewPrefetcher(NewCroppedIterator(Synthetic(spec, 5), TrainSplit, 3, 5, 5, 9), Options{Pool: hostpool.New(2)})
	defer pf.Close()

	size := spec.Channels * 5 * 5
	wantData := make([]float32, 3*size)
	wantLabels := make([]float32, 3)
	for b := 0; b < 20; b++ {
		serialIt.Next(wantData, wantLabels)
		got := pf.Next()
		if !equalF32(got.Planes[0], wantData) || !equalF32(got.Labels, wantLabels) {
			t.Fatalf("batch %d: cropped prefetch diverged from serial", b)
		}
		pf.Recycle(got)
	}
}

// TestPrefetchBitIdentityPairs: same contract for the Siamese pair shape.
func TestPrefetchBitIdentityPairs(t *testing.T) {
	serialIt := NewPairIterator(Synthetic(tinySpec, 3), TrainSplit, 5, 11)
	pf := NewPairPrefetcher(NewPairIterator(Synthetic(tinySpec, 3), TrainSplit, 5, 11), Options{Pool: hostpool.New(3)})
	defer pf.Close()

	size := tinySpec.Channels * tinySpec.Height * tinySpec.Width
	left := make([]float32, 5*size)
	right := make([]float32, 5*size)
	sim := make([]float32, 5)
	for b := 0; b < 20; b++ {
		serialIt.Next(left, right, sim)
		got := pf.Next()
		if !equalF32(got.Planes[0], left) || !equalF32(got.Planes[1], right) || !equalF32(got.Labels, sim) {
			t.Fatalf("batch %d: pair prefetch diverged from serial", b)
		}
		pf.Recycle(got)
	}
}

// TestPrefetchBitIdentitySerialSource: a serial generator (the GoogLeNet
// shape) keeps its exact inline RNG order through the pipeline.
func TestPrefetchBitIdentitySerialSource(t *testing.T) {
	gen := func(rng *rand.Rand) func(planes [][]float32, labels []float32) {
		return func(planes [][]float32, labels []float32) {
			for i := range planes[0] {
				planes[0][i] = float32(rng.NormFloat64())
			}
			for i := range labels {
				labels[i] = float32(rng.Intn(100))
			}
		}
	}
	ref := gen(rand.New(rand.NewSource(21)))
	pf := NewSerialPrefetcher([]int{48}, 6, gen(rand.New(rand.NewSource(21))), Options{})
	defer pf.Close()

	wantData := make([]float32, 48)
	wantLabels := make([]float32, 6)
	for b := 0; b < 15; b++ {
		ref(([][]float32{wantData}), wantLabels)
		got := pf.Next()
		if !equalF32(got.Planes[0], wantData) || !equalF32(got.Labels, wantLabels) {
			t.Fatalf("batch %d: serial-source prefetch diverged from inline generator", b)
		}
		pf.Recycle(got)
	}
}

// rollbackIdentity drives a prefetcher against a serial reference, invoking
// Rollback at the given delivery points (including back-to-back rollbacks
// and a rollback while replayed plans are still in flight); the delivered
// stream must be exactly the uninterrupted serial stream.
func rollbackIdentity(t *testing.T, pf *Prefetcher, next func(b int) ([][]float32, []float32), batches int, rollbackAt map[int]int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		for r := 0; r < rollbackAt[b]; r++ {
			pf.Rollback()
		}
		wantPlanes, wantLabels := next(b)
		got := pf.Next()
		for pi := range wantPlanes {
			if !equalF32(got.Planes[pi], wantPlanes[pi]) {
				t.Fatalf("batch %d plane %d: post-rollback stream diverged", b, pi)
			}
		}
		if !equalF32(got.Labels, wantLabels) {
			t.Fatalf("batch %d: post-rollback labels diverged", b)
		}
		pf.Recycle(got)
	}
}

// TestPrefetchRollbackIterator: rollback discards run-ahead batches and
// replays their plans — the delivered stream is as if no rollback happened.
func TestPrefetchRollbackIterator(t *testing.T) {
	serialIt := NewIterator(Synthetic(tinySpec, 42), TrainSplit, 4, 7)
	pf := NewPrefetcher(NewIterator(Synthetic(tinySpec, 42), TrainSplit, 4, 7), Options{Pool: hostpool.New(2)})
	defer pf.Close()

	size := tinySpec.Channels * tinySpec.Height * tinySpec.Width
	data := make([]float32, 4*size)
	labels := make([]float32, 4)
	next := func(int) ([][]float32, []float32) {
		serialIt.Next(data, labels)
		return [][]float32{data}, labels
	}
	// b=3: double rollback in a row; b=4: rollback while the replay queue
	// from b=3 may still be draining (replay-in-flight reordering guard).
	rollbackIdentity(t, pf, next, 22, map[int]int{1: 1, 3: 2, 4: 1, 15: 1})
}

// TestPrefetchRollbackPairs: the pair pipeline replays recorded (A, B, Sim)
// draws on rollback.
func TestPrefetchRollbackPairs(t *testing.T) {
	serialIt := NewPairIterator(Synthetic(tinySpec, 3), TrainSplit, 5, 11)
	pf := NewPairPrefetcher(NewPairIterator(Synthetic(tinySpec, 3), TrainSplit, 5, 11), Options{Pool: hostpool.New(2)})
	defer pf.Close()

	size := tinySpec.Channels * tinySpec.Height * tinySpec.Width
	left := make([]float32, 5*size)
	right := make([]float32, 5*size)
	sim := make([]float32, 5)
	next := func(int) ([][]float32, []float32) {
		serialIt.Next(left, right, sim)
		return [][]float32{left, right}, sim
	}
	rollbackIdentity(t, pf, next, 16, map[int]int{2: 1, 7: 2, 8: 1})
}

// TestPrefetchRollbackSerialSource: a serial source cannot replay plans (its
// RNG already advanced), so rollback stashes the generated content itself.
func TestPrefetchRollbackSerialSource(t *testing.T) {
	mk := func(rng *rand.Rand) func(planes [][]float32, labels []float32) {
		return func(planes [][]float32, labels []float32) {
			for i := range planes[0] {
				planes[0][i] = float32(rng.NormFloat64())
			}
			for i := range labels {
				labels[i] = float32(rng.Intn(50))
			}
		}
	}
	ref := mk(rand.New(rand.NewSource(33)))
	pf := NewSerialPrefetcher([]int{32}, 4, mk(rand.New(rand.NewSource(33))), Options{})
	defer pf.Close()

	data := make([]float32, 32)
	labels := make([]float32, 4)
	next := func(int) ([][]float32, []float32) {
		ref([][]float32{data}, labels)
		return [][]float32{data}, labels
	}
	rollbackIdentity(t, pf, next, 14, map[int]int{1: 1, 5: 2, 6: 1})
}

// TestConcurrentSamplersBitIdentical is the -race regression for the lazy
// class-latent materialization: many goroutines hammer fresh Samplers over
// a cold dataset while comparing against a serially warmed reference.
func TestConcurrentSamplersBitIdentical(t *testing.T) {
	ds := Synthetic(tinySpec, 9) // cold: latents materialize under contention
	ref := Synthetic(tinySpec, 9)
	n := ref.SampleCount(TrainSplit)
	size := ref.SampleSize()
	want := make([][]float32, n)
	wantLabel := make([]int, n)
	for i := 0; i < n; i++ {
		want[i] = make([]float32, size)
		wantLabel[i] = ref.Sample(TrainSplit, i, want[i], tinySpec.Height, tinySpec.Width)
	}

	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := ds.NewSampler()
			out := make([]float32, size)
			for round := 0; round < 50; round++ {
				i := (g + round*3) % n
				label := s.Sample(TrainSplit, i, out, tinySpec.Height, tinySpec.Width)
				if label != wantLabel[i] || !equalF32(out, want[i]) {
					bad.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("concurrent sampler output diverged from serial reference")
	}
}

type countObserver struct {
	hits   atomic.Int64
	stalls atomic.Int64
	wait   atomic.Int64
}

func (o *countObserver) PrefetchHit()                     { o.hits.Add(1) }
func (o *countObserver) PrefetchStall(wait time.Duration) { o.stalls.Add(1); o.wait.Add(int64(wait)) }

// TestPrefetchStatsAndObserver: every Next is exactly one hit or one stall,
// and the observer sees the same events the internal counters do.
func TestPrefetchStatsAndObserver(t *testing.T) {
	obs := &countObserver{}
	pf := NewPrefetcher(NewIterator(Synthetic(tinySpec, 1), TrainSplit, 3, 2), Options{Observer: obs})
	defer pf.Close()
	const calls = 12
	for i := 0; i < calls; i++ {
		pf.Recycle(pf.Next())
	}
	st := pf.Stats()
	if st.Hits+st.Stalls != calls {
		t.Fatalf("hits %d + stalls %d != %d Next calls", st.Hits, st.Stalls, calls)
	}
	if obs.hits.Load() != st.Hits || obs.stalls.Load() != st.Stalls {
		t.Fatalf("observer (%d, %d) disagrees with stats (%d, %d)",
			obs.hits.Load(), obs.stalls.Load(), st.Hits, st.Stalls)
	}
	if st.StallTime != time.Duration(obs.wait.Load()) {
		t.Fatalf("stall time %v != observed %v", st.StallTime, time.Duration(obs.wait.Load()))
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats string")
	}
}

// TestPrefetchSteadyStateAllocs: once warm, a prefetched batch costs zero
// allocations — across every goroutine of the pipeline, since AllocsPerRun
// counts global mallocs (the tier-1 alloc gate).
func TestPrefetchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	pfIter := NewPrefetcher(NewIterator(Synthetic(tinySpec, 42), TrainSplit, 4, 7), Options{Pool: hostpool.New(2)})
	defer pfIter.Close()
	pfPair := NewPairPrefetcher(NewPairIterator(Synthetic(tinySpec, 3), TrainSplit, 4, 11), Options{Pool: hostpool.New(2)})
	defer pfPair.Close()
	for _, tc := range []struct {
		name string
		pf   *Prefetcher
	}{{"iterator", pfIter}, {"pairs", pfPair}} {
		// Warm: materialize latents, cross an epoch, settle the ring.
		for i := 0; i < 12; i++ {
			tc.pf.Recycle(tc.pf.Next())
		}
		if avg := testing.AllocsPerRun(50, func() {
			tc.pf.Recycle(tc.pf.Next())
		}); avg != 0 {
			t.Errorf("%s: steady-state prefetched batch allocates %.1f times, want 0", tc.name, avg)
		}
	}
}

// TestPairIteratorValidation: constructor and Next validate their inputs
// with clear panics (the contract Iterator.Next already had).
func TestPairIteratorValidation(t *testing.T) {
	oneClass := Spec{Name: "one", TrainImages: 10, TestImages: 2, Channels: 1, Height: 2, Width: 2, Classes: 1}
	assertPanics(t, func() { NewPairIterator(Synthetic(oneClass, 1), TrainSplit, 2, 1) })
	sparse := Spec{Name: "sparse", TrainImages: 10, TestImages: 1, Channels: 1, Height: 2, Width: 2, Classes: 20}
	assertPanics(t, func() { NewPairIterator(Synthetic(sparse, 1), TrainSplit, 2, 1) })

	ds := Synthetic(tinySpec, 1)
	p := NewPairIterator(ds, TrainSplit, 2, 1)
	size := ds.SampleSize()
	ok := make([]float32, 2*size)
	sim := make([]float32, 2)
	assertPanics(t, func() { p.Next(make([]float32, size), ok, sim) })
	assertPanics(t, func() { p.Next(ok, make([]float32, size), sim) })
	assertPanics(t, func() { p.Next(ok, ok, make([]float32, 1)) })
	p.Next(ok, ok, sim) // exact-size buffers pass

	it := NewIterator(ds, TrainSplit, 2, 1)
	assertPanics(t, func() { it.Next(make([]float32, size), sim) })
	assertPanics(t, func() { it.Next(make([]float32, 2*size), make([]float32, 1)) })

	assertPanics(t, func() { NewSerialPrefetcher([]int{4}, 2, nil, Options{}) })
}
