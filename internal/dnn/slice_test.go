package dnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simgpu"
)

// buildSliceNet wires data → slice → concat so the two layers must be
// exact inverses of each other.
func buildSliceNet(t *testing.T, channels ...int) *Net {
	t.Helper()
	ctx := NewContext(HostLauncher{}, 1)
	net, err := NewNet("slicenet").
		Input("data", 2, 4, 3, 3).
		Add(NewSlice("slice", channels...), []string{"data"}, []string{"s1", "s2"}).
		Add(NewConcat("concat"), []string{"s1", "s2"}, []string{"out"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

func TestSliceConcatRoundTrip(t *testing.T) {
	for _, channels := range [][]int{nil, {1, 3}, {3, 1}} {
		net := buildSliceNet(t, channels...)
		rng := rand.New(rand.NewSource(7))
		vals := make([]float32, net.Blob("data").Count())
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		if err := net.SetInputData("data", vals); err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(HostLauncher{}, 1)
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		out := net.Blob("out").Data.Data()
		for i, v := range vals {
			if math.Float32bits(out[i]) != math.Float32bits(v) {
				t.Fatalf("channels %v: slice∘concat not identity at %d: %v vs %v", channels, i, out[i], v)
			}
		}
	}
}

// TestSliceBackwardScatter checks the gradient: with each top's diff
// seeded, the bottom diff accumulates the tops' diffs back into their
// channel ranges — slice's backward is concat's forward.
func TestSliceBackwardScatter(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 1)
	bottom := NewBlob("b", 2, 4, 3, 3)
	t1 := NewBlob("t1")
	t2 := NewBlob("t2")
	l := NewSlice("s", 1, 3)
	if err := l.Setup(ctx, []*Blob{bottom}, []*Blob{t1, t2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, top := range []*Blob{t1, t2} {
		d := top.Diff.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
	}
	if err := l.Backward(ctx, []*Blob{t1, t2}, []bool{true}, []*Blob{bottom}); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the expected bottom diff with concat's forward layout.
	hw := 3 * 3
	dbot := bottom.Diff.Data()
	for n := 0; n < 2; n++ {
		for i, v := range t1.Diff.Data()[n*1*hw : (n+1)*1*hw] {
			if got := dbot[(n*4+0)*hw+i]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("t1 scatter mismatch at n=%d i=%d: %v vs %v", n, i, got, v)
			}
		}
		for i, v := range t2.Diff.Data()[n*3*hw : (n+1)*3*hw] {
			if got := dbot[(n*4+1)*hw+i]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("t2 scatter mismatch at n=%d i=%d: %v vs %v", n, i, got, v)
			}
		}
	}
}

// countingLauncher counts kernel launches.
type countingLauncher struct{ n *int }

func (l countingLauncher) BeginLayer(string) {}
func (l countingLauncher) Launch(k *simgpu.Kernel, _ int) error {
	*l.n++
	return nil
}
func (l countingLauncher) Sync() error { return nil }
func (l countingLauncher) Width() int  { return 1 }

// TestSliceBackwardSkip verifies the propagate[0]==false fast path: no
// kernels launch and the bottom diff stays untouched.
func TestSliceBackwardSkip(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 1)
	bottom := NewBlob("b", 2, 4, 3, 3)
	t1 := NewBlob("t1")
	t2 := NewBlob("t2")
	l := NewSlice("s")
	if err := l.Setup(ctx, []*Blob{bottom}, []*Blob{t1, t2}); err != nil {
		t.Fatal(err)
	}
	for i := range t1.Diff.Data() {
		t1.Diff.Data()[i] = 1
	}
	sentinel := float32(42)
	bottom.Diff.Data()[0] = sentinel
	count := 0
	cctx := NewContext(countingLauncher{n: &count}, 1)
	if err := l.Backward(cctx, []*Blob{t1, t2}, []bool{false}, []*Blob{bottom}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("skip path launched %d kernels", count)
	}
	if bottom.Diff.Data()[0] != sentinel {
		t.Fatal("skip path wrote the bottom diff")
	}
	// Sanity: with propagate true it does launch and accumulate.
	if err := l.Backward(cctx, []*Blob{t1, t2}, []bool{true}, []*Blob{bottom}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("propagating path launched no kernels")
	}
	if bottom.Diff.Data()[0] != sentinel+1 {
		t.Fatalf("scatter should accumulate: got %v", bottom.Diff.Data()[0])
	}
}

func TestSliceSetupErrors(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 1)
	bottom := NewBlob("b", 2, 5, 3, 3)
	tops := []*Blob{NewBlob("t1"), NewBlob("t2")}
	if err := NewSlice("s").Setup(ctx, []*Blob{bottom}, tops); err == nil {
		t.Fatal("5 channels over 2 tops accepted for even split")
	}
	if err := NewSlice("s", 2).Setup(ctx, []*Blob{bottom}, tops); err == nil {
		t.Fatal("1 size for 2 tops accepted")
	}
	if err := NewSlice("s", 2, 0).Setup(ctx, []*Blob{bottom}, tops); err == nil {
		t.Fatal("zero channel size accepted")
	}
	if err := NewSlice("s", 2, 2).Setup(ctx, []*Blob{bottom}, tops); err == nil {
		t.Fatal("sizes summing to 4 accepted for 5 channels")
	}
	if err := NewSlice("s").Setup(ctx, []*Blob{bottom, bottom}, tops); err == nil {
		t.Fatal("two bottoms accepted")
	}
}
