package glp4nn

import (
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd drives the public API exactly as the README shows:
// build a workload, train briefly under GLP4NN with real math, and inspect
// plans and overheads.
func TestFacadeEndToEnd(t *testing.T) {
	dev := NewDevice(TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	ctx := NewContext(rt, 42)

	net, err := BuildModel("CIFAR10", ctx, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := NewFeeder("CIFAR10", 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(net, ctx, CIFAR10QuickSolver())

	var losses []float64
	for i := 0; i < 4; i++ {
		if err := feed(net); err != nil {
			t.Fatal(err)
		}
		loss, err := solver.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Synchronize(); err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	if losses[0] <= 0 {
		t.Fatalf("loss = %v", losses[0])
	}
	if len(rt.Plans()) == 0 {
		t.Fatal("no concurrency plans after training")
	}
	snap := rt.Ledger().Snapshot()
	if snap.ProfiledKernels == 0 || snap.Tp == 0 || snap.Ta == 0 {
		t.Fatalf("overhead ledger empty: %s", snap)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if _, err := BuildModel("nope", NewContext(Serial(NewDevice(TeslaK40C)), 1), 1, 1); err == nil {
		t.Fatal("unknown model resolved")
	}
	if _, err := NewFeeder("nope", 1, 1); err == nil {
		t.Fatal("unknown feeder resolved")
	}
	if _, ok := DeviceByName("P100"); !ok {
		t.Fatal("P100 lookup failed")
	}
	if len(Workloads) != 4 {
		t.Fatalf("workloads = %v", Workloads)
	}
	desc := Describe(NewDevice(TitanXP))
	for _, want := range []string{"TitanXP", "Pascal", "30 SMs", "128"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q: %s", want, desc)
		}
	}
	if Version == "" {
		t.Fatal("version")
	}
}

// TestFacadeFixedPoolFasterThanSerial checks the motivation result through
// the public API only.
func TestFacadeFixedPoolFasterThanSerial(t *testing.T) {
	measure := func(streams int) time.Duration {
		dev := NewDevice(TeslaP100)
		var l Launcher
		if streams <= 1 {
			l = Serial(dev)
		} else {
			l = FixedPool(dev, streams)
		}
		ctx := NewContext(l, 1)
		ctx.Compute = false
		net, err := BuildModel("GoogLeNet", ctx, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Forward(ctx); err != nil { // warm scratch buffers
			t.Fatal(err)
		}
		if err := dev.ResetClocks(); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		d, err := dev.Synchronize()
		if err != nil {
			t.Fatal(err)
		}
		if h := dev.HostTime(); h > d {
			d = h
		}
		return d
	}
	serial := measure(1)
	pooled := measure(8)
	if pooled >= serial {
		t.Fatalf("8-stream pool (%v) not faster than serial (%v) on GoogLeNet slice", pooled, serial)
	}
	tl := Timeline(nil, 50)
	if tl == "" {
		t.Fatal("timeline")
	}
}

// TestFacadeWithDAG drives the operator DAG scheduler through the public
// API: GoogLeNet trained with WithDAG on the GLP4NN runtime must report
// real inter-layer parallelism and produce the same losses as a serial run.
func TestFacadeWithDAG(t *testing.T) {
	train := func(dag bool) []float64 {
		dev := NewDevice(TeslaP100)
		fw := New()
		defer fw.Close()
		ctx := NewContext(fw.Runtime(dev), 42)
		net, err := BuildModel("GoogLeNet", ctx, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		if dag {
			net = WithDAG(net)
		}
		var st DAGStats
		if st, err = net.DAGStats(); err != nil {
			t.Fatal(err)
		}
		if st.MaxWavefront < 2 {
			t.Fatalf("GoogLeNet DAG reports no parallelism: %+v", st)
		}
		feed, err := NewFeeder("GoogLeNet", 2, 43)
		if err != nil {
			t.Fatal(err)
		}
		solver := NewSolver(net, ctx, CIFAR10QuickSolver())
		var losses []float64
		for i := 0; i < 3; i++ {
			if err := feed(net); err != nil {
				t.Fatal(err)
			}
			loss, err := solver.Step()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.Synchronize(); err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses
	}
	serial := train(false)
	dag := train(true)
	for i := range serial {
		if serial[i] != dag[i] {
			t.Fatalf("step %d loss differs: serial %v dag %v", i, serial[i], dag[i])
		}
	}
}

// TestFacadeHostPoolFusionPrefetchServe drives the four documented entry
// points no example executes — NewHostPool, WithFusedEpilogues,
// WithPrefetch and NewServer — on one CIFAR10 net: train from the
// prefetched pipeline, freeze, serve one request. The runtime's ledger is
// wired in as the observer of both the pipeline and the server, so its
// mirrored counters must see every batch and the request.
func TestFacadeHostPoolFusionPrefetchServe(t *testing.T) {
	const batch, steps = 4, 2
	dev := NewDevice(TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	pool := NewHostPool(2)
	ctx := NewParallelContext(rt, 42, pool)

	net, err := BuildModel("CIFAR10", ctx, batch, 42)
	if err != nil {
		t.Fatal(err)
	}
	net = WithFusedEpilogues(net)
	if len(net.FusionPlan()) == 0 {
		t.Fatal("CIFAR10 reports no fusable epilogue sites")
	}
	pipe, err := WithPrefetch("CIFAR10", batch, 43, PipeConfig{Pool: pool, Observer: rt.Ledger()})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	solver := NewSolver(net, ctx, CIFAR10QuickSolver())
	for i := 0; i < steps; i++ {
		if err := pipe.Feed(net); err != nil {
			t.Fatal(err)
		}
		if _, err := solver.Step(); err != nil {
			t.Fatal(err)
		}
	}

	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fz, ctx, ServeConfig{Observer: rt.Ledger(), Budget: rt.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	samples := make([][]float32, len(srv.RowSizes()))
	for i, n := range srv.RowSizes() {
		samples[i] = make([]float32, n)
	}
	out, err := srv.Predict(samples...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out[0]) == 0 {
		t.Fatalf("empty answer: %v", out)
	}
	srv.Close() // the observer is notified after the answer; Close waits for it

	snap := rt.Ledger().Snapshot()
	if got := snap.PrefetchHits + snap.PrefetchStalls; got != steps {
		t.Fatalf("ledger saw %d prefetched batches, want %d (%s)", got, steps, snap.InputPipe())
	}
	if snap.ServeRequests != 1 || snap.ServeBatches != 1 {
		t.Fatalf("ledger serving counters: %s", snap.Serving())
	}
}
