package models

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// hostWidthLauncher is HostLauncher with a configurable chain width, so the
// layers allocate per-chain scratch and the context's pool path engages.
type hostWidthLauncher struct{ w int }

func (hostWidthLauncher) BeginLayer(string) {}

func (hostWidthLauncher) Launch(k *simgpu.Kernel, _ int) error {
	return nil
}

func (hostWidthLauncher) Sync() error { return nil }

func (l hostWidthLauncher) Width() int { return l.w }

// The DAG side-contract lets the operator DAG scheduler run concurrent layer
// sessions over this launcher (it is stateless, so the fork is itself,
// always ready and uncapped).
func (l hostWidthLauncher) ForkLayerSession() any  { return l }
func (hostWidthLauncher) DAGReady([]string) bool   { return true }
func (hostWidthLauncher) LayerConcurrencyCap() int { return 0 }

// trainWorkload trains a workload for `steps` solver iterations at the given
// launcher width, optionally offloading chain closures to a worker pool, and
// returns the final parameters.
func trainWorkload(t *testing.T, name string, batch, width, steps int, pool *hostpool.Pool) [][]float32 {
	return trainWorkloadDAG(t, name, batch, width, steps, pool, false)
}

// trainWorkloadDAG is trainWorkload with the operator DAG scheduler
// switchable on.
func trainWorkloadDAG(t *testing.T, name string, batch, width, steps int, pool *hostpool.Pool, dag bool) [][]float32 {
	return trainWorkloadFused(t, name, batch, width, steps, pool, dag, false)
}

// trainWorkloadFused is trainWorkloadDAG with fused GEMM epilogues
// switchable on too.
func trainWorkloadFused(t *testing.T, name string, batch, width, steps int, pool *hostpool.Pool, dag, fuse bool) [][]float32 {
	t.Helper()
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dnn.NewContext(hostWidthLauncher{width}, 5)
	ctx.Pool = pool
	net, err := w.Build(ctx, batch, 5)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableDAG(dag)
	if fuse {
		if sites := net.EnableFusion(true); sites == 0 {
			t.Fatalf("%s: no fusable sites detected", name)
		}
	}
	feed := w.NewFeeder(batch, 6)
	s := dnn.NewSolver(net, ctx, dnn.SolverConfig{BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < steps; i++ {
		if err := feed(net); err != nil {
			t.Fatal(err)
		}
		loss, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s step %d: loss = %v", name, i, loss)
		}
	}
	var out [][]float32
	for _, p := range net.Params() {
		out = append(out, append([]float32(nil), p.Data.Data()...))
	}
	return out
}

// TestConvergenceInvariance is the paper's headline property carried onto the
// host engine: at a fixed chain width, training with chain closures offloaded
// to the shared worker pool must yield trained parameters bitwise identical
// to serial inline execution — for every one of the four evaluated workloads.
func TestConvergenceInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, width int
		steps        int
	}{
		{"CIFAR10", 4, 3, 2},
		{"Siamese", 4, 3, 2},
		{"CaffeNet", 2, 2, 1}, // ~6 GFLOP per image on the host: keep it small
		{"GoogLeNet", 4, 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := trainWorkload(t, c.name, c.batch, c.width, c.steps, nil)
			pooled := trainWorkload(t, c.name, c.batch, c.width, c.steps, hostpool.New(4))
			assertParamsBitwiseEqual(t, c.name, "pooled", serial, pooled)
		})
	}
}

func assertParamsBitwiseEqual(t *testing.T, workload, variant string, serial, other [][]float32) {
	t.Helper()
	if len(serial) != len(other) {
		t.Fatalf("param count mismatch: %d vs %d", len(serial), len(other))
	}
	for i := range serial {
		if len(serial[i]) != len(other[i]) {
			t.Fatalf("param %d length mismatch", i)
		}
		for j := range serial[i] {
			if math.Float32bits(serial[i][j]) != math.Float32bits(other[i][j]) {
				t.Fatalf("%s: param %d[%d] differs: serial %v %s %v",
					workload, i, j, serial[i][j], variant, other[i][j])
			}
		}
	}
}

// TestDAGConvergenceInvariance extends the invariance gate to the operator
// DAG scheduler: executing independent layers concurrently (with and
// without the host pool underneath) must leave the trained parameters of
// all four evaluated workloads bitwise identical to the serial schedule.
// CIFAR10 and CaffeNet are pure chains (the serial-fallback path);
// Siamese's twin branches run concurrently forward and serialize backward
// through their shared parameters; GoogLeNet's inception branches run
// concurrently in both directions.
func TestDAGConvergenceInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, width int
		steps        int
	}{
		{"CIFAR10", 4, 3, 2},
		{"Siamese", 4, 3, 2},
		{"CaffeNet", 2, 2, 1},
		{"GoogLeNet", 4, 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := trainWorkload(t, c.name, c.batch, c.width, c.steps, nil)
			dag := trainWorkloadDAG(t, c.name, c.batch, c.width, c.steps, nil, true)
			assertParamsBitwiseEqual(t, c.name, "dag", serial, dag)
			pooled := trainWorkloadDAG(t, c.name, c.batch, c.width, c.steps, hostpool.New(4), true)
			assertParamsBitwiseEqual(t, c.name, "dag+pool", serial, pooled)
		})
	}
}

// TestFusionConvergenceInvariance extends the invariance gate to fused GEMM
// epilogues: with conv+bias+relu and ip+bias collapsed into the GEMM (alone,
// and stacked with the operator DAG scheduler and the host pool), the
// trained parameters of all four evaluated workloads must stay bitwise
// identical to the plain serial schedule. This runs at the host's detected
// ISA level, so on AVX2 machines it also exercises the 8×8 micro-kernel
// under full training.
func TestFusionConvergenceInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, width int
		steps        int
	}{
		{"CIFAR10", 4, 3, 2},
		{"Siamese", 4, 3, 2},
		{"CaffeNet", 2, 2, 1},
		{"GoogLeNet", 4, 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := trainWorkload(t, c.name, c.batch, c.width, c.steps, nil)
			fused := trainWorkloadFused(t, c.name, c.batch, c.width, c.steps, nil, false, true)
			assertParamsBitwiseEqual(t, c.name, "fused", serial, fused)
			full := trainWorkloadFused(t, c.name, c.batch, c.width, c.steps, hostpool.New(4), true, true)
			assertParamsBitwiseEqual(t, c.name, "fused+dag+pool", serial, full)
		})
	}
}

// TestISAConvergenceInvariance pins the dispatch ladder under full training:
// the same CIFAR10 run forced to each runnable ISA level must produce
// bitwise identical trained parameters — SIMD width is a pure speed knob.
func TestISAConvergenceInvariance(t *testing.T) {
	avail := tensor.AvailableISAs()
	if len(avail) < 2 {
		t.Skip("single-level host: nothing to compare")
	}
	prev := tensor.ActiveISA()
	defer func() { _ = tensor.SetISA(prev) }()
	var ref [][]float32
	for _, lv := range avail {
		if err := tensor.SetISA(lv); err != nil {
			t.Fatal(err)
		}
		got := trainWorkloadFused(t, "CIFAR10", 4, 3, 2, nil, false, true)
		if ref == nil {
			ref = got
			continue
		}
		assertParamsBitwiseEqual(t, "CIFAR10", "isa="+lv.String(), ref, got)
	}
}
