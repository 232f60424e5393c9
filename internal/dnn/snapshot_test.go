package dnn

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestWeightsRoundTrip(t *testing.T) {
	net := buildTinyNet(t, 4, 301)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}

	// A differently initialized twin converges to identical weights after
	// loading.
	twin := buildTinyNet(t, 4, 999)
	if tensor.Equal(net.Params()[0].Data, twin.Params()[0].Data) {
		t.Fatal("twins unexpectedly share initialization")
	}
	if err := twin.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if !tensor.Equal(p.Data, twin.Params()[i].Data) {
			t.Fatalf("param %s differs after round trip", p.Name)
		}
	}
}

func TestWeightsFileRoundTrip(t *testing.T) {
	net := buildTinyNet(t, 2, 302)
	path := filepath.Join(t.TempDir(), "weights.glpw")
	if err := net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}
	twin := buildTinyNet(t, 2, 777)
	if err := twin.LoadWeightsFile(path); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(net.Params()[1].Data, twin.Params()[1].Data) {
		t.Fatal("file round trip lost data")
	}
	if err := twin.LoadWeightsFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadWeightsErrors(t *testing.T) {
	net := buildTinyNet(t, 2, 303)
	if err := net.LoadWeights(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated stream.
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := net.LoadWeights(bytes.NewReader(buf.Bytes()[:20])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Snapshot from a different architecture (param name mismatch).
	other, err := NewNet("other").
		Input("x", 2, 4).
		Add(NewIP("different", IP(3)), []string{"x"}, []string{"y"}).
		Build(NewContext(HostLauncher{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	var obuf bytes.Buffer
	if err := other.SaveWeights(&obuf); err != nil {
		t.Fatal(err)
	}
	if err := net.LoadWeights(bytes.NewReader(obuf.Bytes())); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
}

// TestSolverSnapshotResume: training N steps straight must equal training
// k steps, snapshotting, restoring into a fresh solver, and training N−k
// more — bitwise, including momentum state.
func TestSolverSnapshotResume(t *testing.T) {
	makeRun := func() (*Net, *Solver, func(i int)) {
		net := buildTinyNet(t, 4, 305)
		ctx := NewContext(HostLauncher{}, 306)
		s := NewSolver(net, ctx, SolverConfig{BaseLR: 0.02, Momentum: 0.9, WeightDecay: 0.001, Policy: "step", Gamma: 0.5, StepSize: 3})
		feed := func(i int) {
			fillTinyInputs(t, net, int64(1000+i)) // deterministic per step
		}
		return net, s, feed
	}

	// Straight run: 6 steps.
	netA, solverA, feedA := makeRun()
	for i := 0; i < 6; i++ {
		feedA(i)
		if _, err := solverA.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Split run: 3 steps, snapshot, restore into a fresh world, 3 more.
	netB, solverB, feedB := makeRun()
	for i := 0; i < 3; i++ {
		feedB(i)
		if _, err := solverB.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := solverB.Snapshot(&state); err != nil {
		t.Fatal(err)
	}

	netC, solverC, feedC := makeRun()
	if err := solverC.Restore(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	if solverC.Iter() != 3 {
		t.Fatalf("restored iter = %d, want 3", solverC.Iter())
	}
	for i := 3; i < 6; i++ {
		feedC(i)
		if _, err := solverC.Step(); err != nil {
			t.Fatal(err)
		}
	}

	pa, pc := netA.Params(), netC.Params()
	for i := range pa {
		da, dc := pa[i].Data.Data(), pc[i].Data.Data()
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(dc[j]) {
				t.Fatalf("resume mismatch at %s[%d]: %v vs %v", pa[i].Name, j, da[j], dc[j])
			}
		}
	}
	_ = netB
}

func TestSolverRestoreErrors(t *testing.T) {
	net := buildTinyNet(t, 2, 307)
	s := NewSolver(net, NewContext(HostLauncher{}, 1), SolverConfig{BaseLR: 0.1})
	if err := s.Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty restore accepted")
	}
	// Weights-only stream (missing solver section).
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("weights-only stream accepted as solver state")
	}
}

// TestTimingOnlyBuildFillsNoWeights: a net built by a timing-only context
// leaves its parameters unfilled — their pages untouched — and still steps
// timing-only; a real-math pass (training or frozen) and a weight save
// refuse it rather than train or ship zeros; loading weights clears the
// refusal and the net then computes exactly what the saved net does.
func TestTimingOnlyBuildFillsNoWeights(t *testing.T) {
	bctx := NewContext(HostLauncher{}, 3)
	bctx.Compute = false
	net := buildTinyNetWith(t, bctx, 4, 3)
	fillTinyInputs(t, net, 4)
	for _, p := range net.Params() {
		for i, v := range p.Data.Data() {
			if v != 0 {
				t.Fatalf("%s[%d] = %v: a timing-only build filled it", p.Name, i, v)
			}
		}
	}
	tctx := NewContext(HostLauncher{}, 5)
	tctx.Compute = false
	if _, err := NewSolver(net, tctx, CIFAR10QuickSolver()).Step(); err != nil {
		t.Fatalf("timing-only step on a timing-only build: %v", err)
	}

	const refusal = "never filled or loaded"
	if _, err := net.ForwardBackward(NewContext(HostLauncher{}, 5)); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("real-math pass on unfilled weights: err %v, want a refusal", err)
	}
	frozen, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.Forward(NewContext(HostLauncher{}, 5)); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("frozen real-math pass on unfilled weights: err %v, want a refusal", err)
	}
	if err := net.SaveWeights(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("weight save of unfilled weights: err %v, want a refusal", err)
	}

	ref := buildTinyNet(t, 4, 3)
	fillTinyInputs(t, ref, 4)
	var saved bytes.Buffer
	if err := ref.SaveWeights(&saved); err != nil {
		t.Fatal(err)
	}
	if err := net.LoadWeights(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := net.ForwardBackward(NewContext(HostLauncher{}, 5))
	if err != nil {
		t.Fatalf("real-math pass after loading weights: %v", err)
	}
	want, err := ref.ForwardBackward(NewContext(HostLauncher{}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("loaded net's loss %v, the saved net's %v", got, want)
	}
	if err := frozen.Forward(NewContext(HostLauncher{}, 5)); err != nil {
		t.Fatalf("frozen pass after loading weights: %v", err)
	}
	var resaved bytes.Buffer
	if err := net.SaveWeights(&resaved); err != nil || !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatalf("re-save after loading: err %v, equal bytes %v", err, bytes.Equal(resaved.Bytes(), saved.Bytes()))
	}
}
