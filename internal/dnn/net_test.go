package dnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// buildTinyNet makes a small conv→relu→pool→ip→softmax classifier over
// random inputs, the workhorse for net-level tests.
func buildTinyNet(t testing.TB, batch int, seed int64) *Net {
	t.Helper()
	return buildTinyNetWith(t, NewContext(HostLauncher{}, seed), batch, seed)
}

// buildTinyNetWith is buildTinyNet built by ctx.
func buildTinyNetWith(t testing.TB, ctx *Context, batch int, seed int64) *Net {
	t.Helper()
	cc := Conv(4, 3, 1, 1)
	cc.Seed = seed
	ic := IP(3)
	ic.Seed = seed
	net, err := NewNet("tiny").
		Input("data", batch, 2, 8, 8).
		Input("label", batch).
		Add(NewConv("conv1", cc), []string{"data"}, []string{"c1"}).
		Add(NewReLU("relu1"), []string{"c1"}, []string{"r1"}).
		Add(NewPool("pool1", Pool(MaxPool, 2, 2)), []string{"r1"}, []string{"p1"}).
		Add(NewIP("ip1", ic), []string{"p1"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

func fillTinyInputs(t testing.TB, net *Net, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := net.Blob("data")
	vals := make([]float32, data.Count())
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	if err := net.SetInputData("data", vals); err != nil {
		t.Fatal(err)
	}
	labels := make([]float32, net.Blob("label").Count())
	for i := range labels {
		labels[i] = float32(rng.Intn(3))
	}
	if err := net.SetInputData("label", labels); err != nil {
		t.Fatal(err)
	}
}

func TestNetForwardBackward(t *testing.T) {
	net := buildTinyNet(t, 4, 1)
	fillTinyInputs(t, net, 2)
	ctx := NewContext(HostLauncher{}, 1)
	loss, err := net.ForwardBackward(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss = %v", loss)
	}
	// Gradients should be nonzero somewhere.
	total := 0.0
	for _, p := range net.Params() {
		total += p.Diff.AbsSum()
	}
	if total == 0 {
		t.Fatal("all parameter gradients are zero")
	}
	// Input label blob must not receive gradient (propagate=false).
	if net.Blob("label").Diff.AbsSum() != 0 {
		t.Fatal("label blob received gradient")
	}
}

func TestNetBuilderErrors(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 1)
	if _, err := NewNet("bad").
		Add(NewReLU("r"), []string{"missing"}, []string{"out"}).
		Build(ctx); err == nil {
		t.Fatal("unknown bottom accepted")
	}
	if _, err := NewNet("bad2").
		Input("a", 1, 1).
		Add(NewReLU("r"), []string{"a"}, []string{"a"}).
		Build(ctx); err == nil {
		t.Fatal("in-place top accepted")
	}
	if _, err := NewNet("bad3").
		Input("a", 1, 2).
		Input("a", 1, 2).
		Build(ctx); err == nil {
		t.Fatal("duplicate input accepted")
	}
	// Setup errors propagate out of Build.
	if _, err := NewNet("bad4").
		Input("x", 2, 3). // 2-D input into conv
		Add(NewConv("c", Conv(2, 3, 1, 0)), []string{"x"}, []string{"y"}).
		Build(ctx); err == nil {
		t.Fatal("conv setup error not propagated")
	}
}

func TestNetAccessors(t *testing.T) {
	net := buildTinyNet(t, 2, 5)
	if net.Name() != "tiny" {
		t.Fatal("name")
	}
	if len(net.Layers()) != 5 {
		t.Fatalf("layers = %d", len(net.Layers()))
	}
	if net.LayerByName("conv1") == nil || net.LayerByName("nope") != nil {
		t.Fatal("LayerByName")
	}
	if net.Blob("scores") == nil {
		t.Fatal("Blob")
	}
	// conv weight+bias, ip weight+bias
	if len(net.Params()) != 4 {
		t.Fatalf("params = %d", len(net.Params()))
	}
	if s := net.Summary(); len(s) == 0 {
		t.Fatal("summary empty")
	}
	if err := net.SetInputData("scores", nil); err == nil {
		t.Fatal("SetInputData on non-input accepted")
	}
	if err := net.SetInputData("data", []float32{1}); err == nil {
		t.Fatal("SetInputData size mismatch accepted")
	}
	if _, err := net.OutputValue("loss"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.OutputValue("nope"); err == nil {
		t.Fatal("OutputValue on missing blob accepted")
	}
}

func TestAccuracyLayer(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 1)
	scores := NewBlob("scores", 4, 3)
	labels := NewBlob("labels", 4)
	copy(scores.Data.Data(), []float32{
		1, 5, 0, // → 1
		9, 2, 3, // → 0
		0, 1, 7, // → 2
		2, 8, 1, // → 1
	})
	copy(labels.Data.Data(), []float32{1, 0, 2, 0}) // 3 of 4 correct
	top := NewBlob("acc")
	l := NewAccuracy("acc")
	if err := l.Setup(ctx, []*Blob{scores, labels}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	if err := l.Forward(ctx, []*Blob{scores, labels}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	if got := top.Data.Data()[0]; got != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
	if err := l.Backward(ctx, []*Blob{top}, []bool{true, false}, []*Blob{scores, labels}); err != nil {
		t.Fatal(err)
	}
}

func TestDropoutSemantics(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 7)
	bottom := randBlob("x", 3, 10, 100)
	top := NewBlob("y")
	l := NewDropout("drop", 0.5)
	if err := l.Setup(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	if err := l.Forward(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for i, v := range top.Data.Data() {
		if v == 0 {
			zeros++
		} else {
			want := bottom.Data.Data()[i] * 2
			if math.Abs(float64(v-want)) > 1e-6 {
				t.Fatalf("survivor not scaled: %v vs %v", v, want)
			}
		}
	}
	frac := float64(zeros) / float64(top.Count())
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction = %v, want ≈0.5", frac)
	}
	// Test phase: identity.
	ctx.Phase = Test
	if err := l.Forward(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(top.Data, bottom.Data) {
		t.Fatal("test-phase dropout is not identity")
	}
	// Backward in train phase respects the mask.
	ctx.Phase = Train
	if err := l.Forward(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
		t.Fatal(err)
	}
	top.Diff.Fill(1)
	bottom.ZeroDiff()
	if err := l.Backward(ctx, []*Blob{top}, []bool{true}, []*Blob{bottom}); err != nil {
		t.Fatal(err)
	}
	for i, v := range bottom.Diff.Data() {
		if top.Data.Data()[i] == 0 && v != 0 {
			t.Fatal("gradient flowed through dropped unit")
		}
	}
	// Invalid ratio rejected.
	bad := NewDropout("bad", 1.0)
	if err := bad.Setup(ctx, []*Blob{bottom}, []*Blob{NewBlob("t")}); err == nil {
		t.Fatal("ratio 1.0 accepted")
	}
}

func TestParamSharing(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 3)
	cc1 := Conv(3, 3, 1, 1)
	cc1.Seed = 10
	cc2 := Conv(3, 3, 1, 1)
	cc2.Seed = 20 // different init, will be replaced by sharing
	net, err := NewNet("twins").
		Input("a", 2, 1, 6, 6).
		Input("b", 2, 1, 6, 6).
		Add(NewConv("conv", cc1), []string{"a"}, []string{"fa"}).
		Add(NewConv("conv_p", cc2), []string{"b"}, []string{"fb"}).
		Add(NewEuclideanLoss("loss"), []string{"fa", "fb"}, []string{"l"}).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ShareParams("conv", "conv_p"); err != nil {
		t.Fatal(err)
	}
	// After sharing, Params dedups: conv weight+bias only.
	if got := len(net.Params()); got != 2 {
		t.Fatalf("params after sharing = %d, want 2", got)
	}
	fillRandom(net.Blob("a"), 31)
	fillRandom(net.Blob("b"), 32)
	if _, err := net.ForwardBackward(ctx); err != nil {
		t.Fatal(err)
	}
	// Identical inputs through shared weights give identical outputs.
	net.Blob("b").Data.CopyFrom(net.Blob("a").Data)
	if _, err := net.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(net.Blob("fa").Data, net.Blob("fb").Data) != 0 {
		t.Fatal("shared-weight twins disagree on identical input")
	}
	// Error paths.
	if err := net.ShareParams("nope", "conv_p"); err == nil {
		t.Fatal("unknown src accepted")
	}
	if err := net.ShareParams("conv", "loss"); err == nil {
		t.Fatal("non-sharer dst accepted")
	}
}

func fillRandom(b *Blob, seed int64) {
	tensor.GaussianFiller{Std: 1}.Fill(b.Data, rand.New(rand.NewSource(seed)))
}

// TestWidthInvariance is the convergence-invariance property at the net
// level: forward outputs are bitwise identical for any launcher width, and
// gradients agree tightly (the per-chain partial fold reassociates float32
// sums, which is exactly what a stream-parallel GPU implementation does).
func TestWidthInvariance(t *testing.T) {
	run := func(width int) (*Net, *Blob) {
		net := buildTinyNet(t, 6, 99)
		fillTinyInputs(t, net, 100)
		ctx := NewContext(widthLauncher{width}, 1)
		if _, err := net.ForwardBackward(ctx); err != nil {
			t.Fatal(err)
		}
		return net, net.Blob("scores")
	}
	net1, s1 := run(1)
	net4, s4 := run(4)
	if !tensor.Equal(s1.Data, s4.Data) {
		t.Fatal("forward outputs differ across launcher widths")
	}
	p1 := net1.Params()
	p4 := net4.Params()
	for i := range p1 {
		if d := tensor.MaxAbsDiff(p1[i].Diff, p4[i].Diff); d > 1e-4 {
			t.Fatalf("gradient %s differs by %v across widths", p1[i].Name, d)
		}
	}
}

// widthLauncher is a host launcher that reports an arbitrary width, forcing
// layers onto their multi-chain code paths without a device.
type widthLauncher struct{ w int }

func (l widthLauncher) BeginLayer(string) {}
func (l widthLauncher) Launch(k *simgpu.Kernel, _ int) error {
	return nil
}
func (l widthLauncher) Sync() error { return nil }
func (l widthLauncher) Width() int  { return l.w }

func TestRunDeterminism(t *testing.T) {
	step := func() []float32 {
		net := buildTinyNet(t, 4, 77)
		fillTinyInputs(t, net, 78)
		ctx := NewContext(HostLauncher{}, 79)
		s := NewSolver(net, ctx, SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.001})
		for i := 0; i < 3; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return append([]float32(nil), net.Params()[0].Data.Data()...)
	}
	a, b := step(), step()
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("nondeterministic training at weight %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBlobAccessors(t *testing.T) {
	b := NewBlob("x", 2, 3, 4, 5)
	if b.Num() != 2 || b.Channels() != 3 || b.Height() != 4 || b.Width() != 5 {
		t.Fatal("4-D accessors")
	}
	if b.SampleSize() != 60 {
		t.Fatalf("SampleSize = %d", b.SampleSize())
	}
	if len(b.SampleData(1)) != 60 || len(b.SampleDiff(0)) != 60 {
		t.Fatal("sample slices")
	}
	v := NewBlob("v", 7)
	if v.Num() != 7 || v.Channels() != 1 {
		t.Fatal("1-D accessors")
	}
	b.Reshape(2, 3, 20) // same count: reshape in place
	if b.Count() != 120 {
		t.Fatal("reshape count")
	}
	b.Reshape(2, 2)
	if b.Count() != 4 {
		t.Fatal("reshape realloc")
	}
	if b.String() == "" {
		t.Fatal("String")
	}
}

func TestUploadInputs(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	net := buildTinyNet(t, 4, 881)
	ctx := NewContext(SerialLauncher{Dev: dev}, 1)
	if err := net.UploadInputs(ctx); err != nil {
		t.Fatal(err)
	}
	recs, err := dev.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // data + label inputs
		t.Fatalf("upload records = %d, want 2", len(recs))
	}
	var total float64
	for _, r := range recs {
		if r.Name != "memcpyHtoD" {
			t.Fatalf("record %q", r.Name)
		}
		total += r.Bytes
	}
	want := float64(net.Blob("data").Count()+net.Blob("label").Count()) * 4
	if total != want {
		t.Fatalf("uploaded %v bytes, want %v", total, want)
	}
	// Host-only launcher: silently a no-op.
	if err := net.UploadInputs(NewContext(HostLauncher{}, 1)); err != nil {
		t.Fatal(err)
	}
}
