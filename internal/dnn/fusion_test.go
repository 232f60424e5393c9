package dnn

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/hostpool"
	"repro/internal/simgpu"
)

// nameLauncher records every launched kernel name (thread-safe, for DAG
// runs) while executing the host closure inline.
type nameLauncher struct {
	mu    sync.Mutex
	names map[string]int
}

func newNameLauncher() *nameLauncher { return &nameLauncher{names: map[string]int{}} }

func (l *nameLauncher) BeginLayer(string) {}
func (l *nameLauncher) Launch(k *simgpu.Kernel, _ int) error {
	l.mu.Lock()
	l.names[k.Name]++
	l.mu.Unlock()
	return nil
}
func (l *nameLauncher) Sync() error { return nil }
func (l *nameLauncher) Width() int  { return 1 }

func TestFusionPlanDetection(t *testing.T) {
	net := buildTinyNet(t, 4, 11)
	sites := net.FusionPlan()
	if len(sites) != 2 {
		t.Fatalf("want 2 sites, got %v", sites)
	}
	if sites[0].Layer != "conv1" || sites[0].Kind != "conv+bias+relu" || sites[0].With != "relu1" {
		t.Fatalf("conv site wrong: %+v", sites[0])
	}
	if sites[1].Layer != "ip1" || sites[1].Kind != "ip+bias" || sites[1].With != "" {
		t.Fatalf("ip site wrong: %+v", sites[1])
	}
	if net.FusionEnabled() {
		t.Fatal("fusion should default off")
	}
	if got := net.EnableFusion(true); got != 2 {
		t.Fatalf("EnableFusion(true) = %d, want 2", got)
	}
	if !net.FusionEnabled() {
		t.Fatal("fusion should be on")
	}
	if got := net.EnableFusion(false); got != 0 {
		t.Fatalf("EnableFusion(false) = %d, want 0", got)
	}
	if net.FusionEnabled() {
		t.Fatal("fusion should be off again")
	}
}

// TestFusionPlanVariants: no-bias convs fuse only the activation, and a
// fanned-out conv top keeps its ReLU separate.
func TestFusionPlanVariants(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 3)
	noBias := Conv(4, 3, 1, 1)
	noBias.Bias = false
	net, err := NewNet("variants").
		Input("data", 2, 2, 8, 8).
		Add(NewConv("convA", noBias), []string{"data"}, []string{"a"}).
		Add(NewReLU("reluA"), []string{"a"}, []string{"ra"}).
		Add(NewConv("convF", Conv(3, 3, 1, 1)), []string{"ra"}, []string{"f"}).
		Add(NewReLU("reluF"), []string{"f"}, []string{"rf"}).
		Add(NewPool("poolF", Pool(MaxPool, 2, 2)), []string{"f"}, []string{"pf"}).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sites := net.FusionPlan()
	want := map[string]FusedSite{
		"convA": {Layer: "convA", Kind: "conv+relu", With: "reluA"},
		"convF": {Layer: "convF", Kind: "conv+bias"}, // f fans out to reluF and poolF
	}
	if len(sites) != len(want) {
		t.Fatalf("want %d sites, got %v", len(want), sites)
	}
	for _, s := range sites {
		if w, ok := want[s.Layer]; !ok || w != s {
			t.Fatalf("unexpected site %+v (want %+v)", s, want[s.Layer])
		}
	}
}

// forwardTinyBlobs runs one tiny-net forward (optionally fused) and returns
// every blob's data plus the kernel-name census.
func forwardTinyBlobs(t *testing.T, fused bool) (map[string][]float32, map[string]int) {
	t.Helper()
	net := buildTinyNet(t, 5, 41)
	fillTinyInputs(t, net, 42)
	if fused {
		if got := net.EnableFusion(true); got != 2 {
			t.Fatalf("EnableFusion = %d, want 2", got)
		}
	}
	l := newNameLauncher()
	if _, err := net.Forward(NewContext(l, 43)); err != nil {
		t.Fatal(err)
	}
	out := map[string][]float32{}
	for name, b := range net.blobs {
		out[name] = append([]float32(nil), b.Data.Data()...)
	}
	return out, l.names
}

// TestFusionForwardBitIdentical: with fusion on, every blob — including the
// conv top (exact pre-activation values) and the relu top — holds bitwise
// identical contents, while the gemmk and relu_fwd kernels disappear from
// the stream.
func TestFusionForwardBitIdentical(t *testing.T) {
	plain, plainNames := forwardTinyBlobs(t, false)
	fused, fusedNames := forwardTinyBlobs(t, true)
	for name, want := range plain {
		if !bitsEqual(want, fused[name]) {
			t.Fatalf("blob %q differs under fusion", name)
		}
	}
	if plainNames["sgemm_64x64_fused"] != 0 {
		t.Fatalf("unfused run launched fused GEMM: %v", plainNames)
	}
	if plainNames["gemmk_1xN"] == 0 || plainNames["relu_fwd"] == 0 {
		t.Fatalf("unfused run missing separate passes: %v", plainNames)
	}
	if fusedNames["gemmk_1xN"] != 0 || fusedNames["relu_fwd"] != 0 {
		t.Fatalf("fused run still launches separate passes: %v", fusedNames)
	}
	// conv1 fuses per image (batch 5) and ip1 once.
	if got := fusedNames["sgemm_64x64_fused"]; got != 6 {
		t.Fatalf("fused run launched %d fused GEMMs, want 6 (%v)", got, fusedNames)
	}
	if fusedNames["sgemm_64x64"] != 0 {
		t.Fatalf("fused run still launches unfused GEMMs: %v", fusedNames)
	}
}

// trainTinyFused trains the tiny net and returns final params; knobs select
// fusion, the DAG scheduler and the host pool.
func trainTinyFused(t *testing.T, fused, dag bool, pool *hostpool.Pool) [][]float32 {
	t.Helper()
	net := buildTinyNet(t, 6, 57)
	fillTinyInputs(t, net, 58)
	net.EnableFusion(fused)
	net.EnableDAG(dag)
	ctx := NewContext(widthLauncher{3}, 7)
	ctx.Pool = pool
	s := NewSolver(net, ctx, SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < 4; i++ {
		loss, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) {
			t.Fatalf("step %d: loss NaN", i)
		}
	}
	var out [][]float32
	for _, p := range net.Params() {
		out = append(out, append([]float32(nil), p.Data.Data()...))
	}
	return out
}

// TestFusionTrainedParamsBitIdentical: fused epilogues (alone and stacked
// with the DAG scheduler and the host pool) must not perturb one trained
// bit relative to the plain serial reference.
func TestFusionTrainedParamsBitIdentical(t *testing.T) {
	ref := trainTinyFused(t, false, false, nil)
	for _, tc := range []struct {
		name string
		dag  bool
		pool *hostpool.Pool
	}{
		{"fused", false, nil},
		{"fused+dag", true, nil},
		{"fused+dag+pool", true, hostpool.New(4)},
	} {
		got := trainTinyFused(t, true, tc.dag, tc.pool)
		if len(got) != len(ref) {
			t.Fatalf("%s: param count mismatch", tc.name)
		}
		for i := range ref {
			if !bitsEqual(ref[i], got[i]) {
				t.Fatalf("%s: param %d differs from serial unfused reference", tc.name, i)
			}
		}
	}
}

// TestFrozenFusedMatchesUnfused: fusion flags live on the shared layer
// objects, so a frozen net inherits them; its outputs must match the
// unfused frozen forward bit for bit.
func TestFrozenFusedMatchesUnfused(t *testing.T) {
	freezeRun := func(fused bool) []float32 {
		net := buildTinyNet(t, 4, 91)
		fillTinyInputs(t, net, 92)
		net.EnableFusion(fused)
		fz, err := Freeze(net)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(HostLauncher{}, 93)
		if err := fz.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		out, err := fz.Output("scores")
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), out...)
	}
	if !bitsEqual(freezeRun(false), freezeRun(true)) {
		t.Fatal("frozen outputs differ under fusion")
	}
}

// TestFusionSummaryReportsSites: Summary lists the fusable sites and their
// enabled state.
func TestFusionSummaryReportsSites(t *testing.T) {
	net := buildTinyNet(t, 2, 13)
	s := net.Summary()
	if !strings.Contains(s, "fusable epilogues") || !strings.Contains(s, "conv1[conv+bias+relu←relu1]") {
		t.Fatalf("summary missing fusion report:\n%s", s)
	}
	if !strings.Contains(s, "off; Net.EnableFusion activates") {
		t.Fatalf("summary missing off state:\n%s", s)
	}
	net.EnableFusion(true)
	if s := net.Summary(); !strings.Contains(s, "fusable epilogues (enabled)") {
		t.Fatalf("summary missing enabled state:\n%s", s)
	}
}
