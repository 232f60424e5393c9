package dnn

import (
	"bytes"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostpool"
	"repro/internal/tensor"
)

// buildServeNet is a tiny classifier with the layers freezing must handle:
// dropout (folds to identity), a loss layer (stripped, taking the label
// input with it) and an accuracy layer (stripped).
func buildServeNet(t *testing.T, batch int, seed int64) *Net {
	t.Helper()
	ctx := NewContext(HostLauncher{}, seed)
	cc := Conv(4, 3, 1, 1)
	cc.Seed = seed
	ic := IP(3)
	ic.Seed = seed
	net, err := NewNet("serve-tiny").
		Input("data", batch, 2, 8, 8).
		Input("label", batch).
		Add(NewConv("conv1", cc), []string{"data"}, []string{"c1"}).
		Add(NewReLU("relu1"), []string{"c1"}, []string{"r1"}).
		Add(NewDropout("drop1", 0.5), []string{"r1"}, []string{"d1"}).
		Add(NewIP("ip1", ic), []string{"d1"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Add(NewAccuracy("acc"), []string{"scores", "label"}, []string{"acc"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

func captureBits(t *testing.T, b *Blob) []uint32 {
	t.Helper()
	data := b.Data.Data()
	bits := make([]uint32, len(data))
	for i, v := range data {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

func TestFreezeStripsTrainingOnlyPieces(t *testing.T) {
	net := buildServeNet(t, 4, 401)
	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	if got := fz.Inputs(); len(got) != 1 || got[0] != "data" {
		t.Fatalf("inputs = %v, want [data] (label feeds only stripped layers)", got)
	}
	if got := fz.Outputs(); len(got) != 1 || got[0] != "scores" {
		t.Fatalf("outputs = %v, want [scores]", got)
	}
	if fz.Batch() != 4 {
		t.Fatalf("batch = %d, want 4", fz.Batch())
	}
	// The dropout layer folded away: its top must not be a plan blob.
	if fz.Blob("d1") != nil {
		t.Fatal("dropout top survived freezing")
	}
	for _, st := range fz.prog.ops {
		if _, isDrop := st.layer.(*DropoutLayer); isDrop {
			t.Fatal("dropout step survived freezing")
		}
		if _, isLoss := st.layer.(LossLayer); isLoss {
			t.Fatal("loss step survived freezing")
		}
	}
	// The IP layer now reads the dropout's bottom directly.
	last := fz.prog.ops[len(fz.prog.ops)-1]
	if last.layer.Name() != "ip1" || last.bottomB[0] != net.Blob("r1") {
		t.Fatalf("ip1 bottom not aliased through the folded dropout")
	}
}

func TestFreezeRequiresBuiltNet(t *testing.T) {
	if _, err := Freeze(&Net{name: "raw"}); err == nil {
		t.Fatal("unbuilt net accepted")
	}
}

// TestFrozenForwardMatchesTestPhase: the frozen net's outputs are bitwise
// the Test-phase outputs of the training net, even when the frozen forward
// runs under a Train-phase context with a perturbed RNG (frozen nets force
// Test and never draw).
func TestFrozenForwardMatchesTestPhase(t *testing.T) {
	net := buildServeNet(t, 4, 402)
	fillTinyInputs(t, net, 403)

	ctx := NewContext(HostLauncher{}, 404)
	ctx.Phase = Test
	if _, err := net.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	want := captureBits(t, net.Blob("scores"))

	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	fctx := NewContext(HostLauncher{}, 999) // Train phase, different seed
	fctx.RNG.Float32()                      // perturb the RNG position
	net.Blob("scores").Data.Zero()
	if err := fz.Forward(fctx); err != nil {
		t.Fatal(err)
	}
	got := captureBits(t, net.Blob("scores"))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("scores[%d]: frozen %08x vs test-phase %08x", i, got[i], want[i])
		}
	}
}

func TestFrozenSetInputAndOutput(t *testing.T) {
	net := buildServeNet(t, 2, 405)
	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, net.Blob("data").Count())
	rng := rand.New(rand.NewSource(406))
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	if err := fz.SetInput("data", vals); err != nil {
		t.Fatal(err)
	}
	if err := fz.SetInput("data", vals[:3]); err == nil {
		t.Fatal("short input accepted")
	}
	if err := fz.SetInput("label", []float32{0, 1}); err == nil {
		t.Fatal("non-input blob accepted")
	}
	if err := fz.SetInput("nope", nil); err == nil {
		t.Fatal("unknown blob accepted")
	}
	if err := fz.Forward(NewContext(HostLauncher{}, 1)); err != nil {
		t.Fatal(err)
	}
	out, err := fz.Output("scores")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2*3 {
		t.Fatalf("scores len %d, want 6", len(out))
	}
	if _, err := fz.Output("nope"); err == nil {
		t.Fatal("unknown output accepted")
	}
}

// dropCapLauncher is a forking host launcher whose concurrency cap drops from
// 4 to 1 after its first query — a unified SM budget that other axes claimed
// mid-pass. Its sessions count how many layer invocations are in flight.
type dropCapLauncher struct {
	HostLauncher
	queries, inFlight, maxInFlight *atomic.Int64
}

func (l dropCapLauncher) LayerConcurrencyCap() int {
	if l.queries.Add(1) == 1 {
		return 4
	}
	return 1
}

func (l dropCapLauncher) ForkLayerSession() any { return &dropCapSession{dropCapLauncher: l} }

type dropCapSession struct {
	dropCapLauncher
	active bool
}

func (s *dropCapSession) BeginLayer(string) {
	s.active = true
	if n := s.inFlight.Add(1); n > s.maxInFlight.Load() {
		s.maxInFlight.Store(n)
	}
	// Hold the invocation open long enough for a sibling dispatched in the
	// same round to begin too.
	time.Sleep(2 * time.Millisecond)
}

func (s *dropCapSession) Sync() error {
	if s.active {
		s.active = false
		s.inFlight.Add(-1)
	}
	return nil
}

// TestFrozenWavefrontFollowsCap: the frozen wavefront re-queries the
// launcher's concurrency cap every scheduling round, like training does — a
// cap that drops to 1 after the first round leaves no later round with two
// layers in flight. (The serving path is the one that holds budget grants
// per flush, so it is the one that must follow them.)
func TestFrozenWavefrontFollowsCap(t *testing.T) {
	net := buildBranchyNet(t, 4, 5)
	fillTinyInputs(t, net, 99)
	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	if st := fz.DAGStats(); st.MaxWavefront < 2 {
		t.Fatalf("branchy frozen program offers no parallelism: %+v", st)
	}
	fz.EnableDAG(true)
	l := dropCapLauncher{queries: new(atomic.Int64), inFlight: new(atomic.Int64), maxInFlight: new(atomic.Int64)}
	if err := fz.Forward(NewContext(l, 1)); err != nil {
		t.Fatal(err)
	}
	// The first round has only conv0 ready, so one in flight is the most any
	// round may reach.
	if got := l.maxInFlight.Load(); got != 1 {
		t.Fatalf("%d layers in flight after the cap dropped to 1", got)
	}
}

func TestFrozenCompactDropsGradients(t *testing.T) {
	net := buildServeNet(t, 4, 409)
	fillTinyInputs(t, net, 410)
	fz, err := Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(HostLauncher{}, 1)
	if err := fz.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	want := captureBits(t, net.Blob("scores"))

	if freed := fz.Compact(); freed == 0 {
		t.Fatal("Compact freed nothing")
	}
	if fz.Compact() != 0 {
		t.Fatal("second Compact freed storage again")
	}
	for _, name := range []string{"data", "scores"} {
		if d := fz.Blob(name).Diff; d.Len() != 0 {
			t.Fatalf("%s diff not compacted: %d elems", name, d.Len())
		}
	}
	for _, p := range net.Params() {
		if fz.Blob(p.Name) == nil && p.Diff.Len() != 0 {
			t.Fatalf("param %s diff not compacted", p.Name)
		}
	}
	// Forward still works on the compacted plan, bit for bit.
	net.Blob("scores").Data.Zero()
	if err := fz.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	got := captureBits(t, net.Blob("scores"))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("scores[%d] changed after Compact", i)
		}
	}
}

// TestFrozenLoadedWeights: a frozen twin restored from a weights snapshot
// answers bitwise like the original — the save → load → freeze serving
// path.
func TestFrozenLoadedWeights(t *testing.T) {
	net := buildServeNet(t, 2, 411)
	fillTinyInputs(t, net, 412)
	ctx := NewContext(HostLauncher{}, 1)
	ctx.Phase = Test
	if _, err := net.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	want := captureBits(t, net.Blob("scores"))

	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	twin := buildServeNet(t, 2, 777)
	if err := twin.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	fz, err := Freeze(twin)
	if err != nil {
		t.Fatal(err)
	}
	data := net.Blob("data").Data.Data()
	if err := fz.SetInput("data", data); err != nil {
		t.Fatal(err)
	}
	if err := fz.Forward(NewContext(HostLauncher{}, 2)); err != nil {
		t.Fatal(err)
	}
	got := captureBits(t, twin.Blob("scores"))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("scores[%d]: loaded-frozen %08x vs original %08x", i, got[i], want[i])
		}
	}
	if !tensor.Equal(net.Blob("scores").Data, twin.Blob("scores").Data) {
		t.Fatal("tensor.Equal disagrees with bitwise capture")
	}
}

// TestFrozenFollowsRewiring: layer launch sites are built once and shared
// by the training net and its frozen twin, so their closures must read each
// pass's operands, not what they saw when built. After a training step, a
// frozen net — ip1 rerouted past the folded dropout, gradients compacted —
// answers bitwise like the parent's Test-phase forward and launches the
// parent's kernel stream launch by launch (name, tag, config, cost, chain),
// less the dropout, loss and accuracy launches freezing strips; serially
// and on a host pool. The parent's last forward ran on other inputs, so a
// closure still reading the dropout's top would answer for those.
func TestFrozenFollowsRewiring(t *testing.T) {
	stripped := map[string]bool{"drop1": true, "loss": true, "acc": true}
	for _, pool := range []*hostpool.Pool{nil, hostpool.New(2)} {
		net := buildServeNet(t, 5, 411)
		fillTinyInputs(t, net, 412)
		if _, err := NewSolver(net, NewContext(&recordLauncher{width: 3}, 413), CIFAR10QuickSolver()).Step(); err != nil {
			t.Fatal(err)
		}

		parent := &recordLauncher{width: 3}
		ctx := NewContext(parent, 414)
		ctx.Phase, ctx.Pool = Test, pool
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		want := captureBits(t, net.Blob("scores"))
		var wantRecs []launchRecord
		for _, r := range parent.recs {
			if !stripped[r.tag] {
				wantRecs = append(wantRecs, r)
			}
		}
		fillTinyInputs(t, net, 416)
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		fillTinyInputs(t, net, 412)

		fz, err := Freeze(net)
		if err != nil {
			t.Fatal(err)
		}
		fz.Compact()
		net.Blob("scores").Data.Zero()
		frozen := &recordLauncher{width: 3}
		fctx := NewContext(frozen, 415)
		fctx.Pool = pool
		if err := fz.Forward(fctx); err != nil {
			t.Fatal(err)
		}
		got := captureBits(t, net.Blob("scores"))
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("pool %v: scores[%d]: frozen %08x, parent %08x", pool != nil, i, got[i], want[i])
			}
		}
		if len(frozen.recs) != len(wantRecs) {
			t.Fatalf("pool %v: frozen net launched %d kernels, the parent %d beyond the stripped layers", pool != nil, len(frozen.recs), len(wantRecs))
		}
		for i := range wantRecs {
			if frozen.recs[i] != wantRecs[i] {
				t.Fatalf("pool %v: launch %d = %+v, the parent's %+v", pool != nil, i, frozen.recs[i], wantRecs[i])
			}
		}
	}
}
