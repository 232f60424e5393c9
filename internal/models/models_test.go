package models

import (
	"math"
	"testing"

	"repro/internal/dnn"
)

// convGeometry pulls (Ci, HW, Co, F, S, P) out of a built net's conv layer.
func convGeometry(t *testing.T, net *dnn.Net, layer string) (ci, hw, co, f, s, p int) {
	t.Helper()
	l := net.LayerByName(layer)
	if l == nil {
		t.Fatalf("net %s has no layer %q", net.Name(), layer)
	}
	conv, ok := l.(*dnn.ConvLayer)
	if !ok {
		t.Fatalf("layer %q is %T, want conv", layer, l)
	}
	g := conv.Geometry()
	w := conv.Params()[0]
	return g.Channels, g.Height, w.Shape()[0], g.KernelH, g.StrideH, g.PadH
}

// TestTable5Geometry builds each net and asserts every conv row of the
// paper's Table 5 (input depth, spatial size, filters, kernel, stride, pad).
func TestTable5Geometry(t *testing.T) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
	ctx.Compute = false
	nets := map[string]*dnn.Net{}
	for _, name := range Names {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		batch := 4 // geometry is batch-independent; keep memory small
		net, err := w.Build(ctx, batch, 1)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		nets[name] = net
	}
	for _, row := range LayerTable {
		ci, hw, co, f, s, p := convGeometry(t, nets[row.Net], row.Layer)
		if ci != row.Ci || hw != row.HW || co != row.Co || f != row.F || s != row.S || p != row.P {
			t.Errorf("%s/%s: got Ci=%d HW=%d Co=%d F=%d S=%d P=%d, want %+v",
				row.Net, row.Layer, ci, hw, co, f, s, p, row)
		}
	}
}

func TestDefaultBatchesMatchTable5(t *testing.T) {
	for _, row := range LayerTable {
		w, err := Get(row.Net)
		if err != nil {
			t.Fatal(err)
		}
		if w.DefaultBatch != row.N {
			t.Errorf("%s default batch %d, want %d", row.Net, w.DefaultBatch, row.N)
		}
	}
}

func TestRowsFilter(t *testing.T) {
	if got := len(Rows("CaffeNet")); got != 5 {
		t.Fatalf("CaffeNet rows = %d, want 5", got)
	}
	if got := len(Rows("GoogLeNet")); got != 6 {
		t.Fatalf("GoogLeNet rows = %d, want 6", got)
	}
	if Rows("nope") != nil {
		t.Fatal("unknown net returned rows")
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

// TestWorkloadsTrainEndToEnd feeds and steps each workload once with real
// math at a small batch, checking the loss is finite and gradients flow.
func TestWorkloadsTrainEndToEnd(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			w, _ := Get(name)
			batch := 2
			if name == "CaffeNet" {
				batch = 1 // its conv stack is ~6 GFLOP per image on the host
			}
			ctx := dnn.NewContext(dnn.HostLauncher{}, 5)
			net, err := w.Build(ctx, batch, 5)
			if err != nil {
				t.Fatal(err)
			}
			feed := w.NewFeeder(batch, 6)
			if err := feed(net); err != nil {
				t.Fatal(err)
			}
			loss, err := net.ForwardBackward(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("loss = %v", loss)
			}
			grad := 0.0
			for _, p := range net.Params() {
				grad += p.Diff.AbsSum()
			}
			if grad == 0 {
				t.Fatal("no gradient reached any parameter")
			}
		})
	}
}

// TestSiameseSharingReducesParams: the twins must share, so the parameter
// count equals one tower's.
func TestSiameseSharingReducesParams(t *testing.T) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
	net, err := BuildSiamese(ctx, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One tower: conv1(w,b) conv2(w,b) ip1(w,b) ip2(w,b) feat(w,b) = 10.
	if got := len(net.Params()); got != 10 {
		t.Fatalf("siamese params = %d, want 10 (shared towers)", got)
	}
}

// TestCIFAR10LearnsSyntheticData is the miniature of the paper's Fig. 11
// setup: real training on synthetic CIFAR-10 must reduce the loss.
func TestCIFAR10LearnsSyntheticData(t *testing.T) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, 3)
	net, err := BuildCIFAR10(ctx, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	feed := Workloads["CIFAR10"].NewFeeder(8, 4)
	s := dnn.NewSolver(net, ctx, dnn.SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.004})
	var first, last float64
	for i := 0; i < 20; i++ {
		if err := feed(net); err != nil {
			t.Fatal(err)
		}
		loss, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if !(last < first*0.9) {
		t.Fatalf("CIFAR10 did not learn: first %.4f, last %.4f", first, last)
	}
}

func TestGoogLeNetConcatWidth(t *testing.T) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
	ctx.Compute = false
	net, err := BuildGoogLeNetSlice(ctx, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := net.Blob("cat")
	// 320 + 32 + 384 + 384 + 192 + 48 = 1360 channels.
	if cat.Channels() != 1360 {
		t.Fatalf("concat channels = %d, want 1360", cat.Channels())
	}
	if cat.Height() != 7 || cat.Width() != 7 {
		t.Fatalf("concat spatial = %dx%d", cat.Height(), cat.Width())
	}
}
