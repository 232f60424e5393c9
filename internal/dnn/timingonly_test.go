package dnn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// streamLauncher is HostLauncher that also writes down the kernel stream.
type streamLauncher struct {
	HostLauncher
	stream []launched
}

type launched struct {
	name, tag string
	flops     float64
}

func (l *streamLauncher) Launch(k *simgpu.Kernel, chain int) error {
	l.stream = append(l.stream, launched{k.Name, k.Tag, k.Cost.FLOPs})
	return l.HostLauncher.Launch(k, chain)
}

// TestTimingOnlyStepTouchesNoTensor pins the timing-only contract: a
// Compute=false solver step launches exactly the kernel stream of a real
// step and reads, writes or clears no activation, parameter or gradient;
// and switching Compute back on for the same net clears the gradients the
// timing-only step left alone, so it trains exactly as a fresh net does.
func TestTimingOnlyStepTouchesNoTensor(t *testing.T) {
	const sentinel = 7.5
	rec := &streamLauncher{}
	net := buildTinyNet(t, 4, 31)
	fillTinyInputs(t, net, 32)
	ctx := NewContext(rec, 33)
	solver := NewSolver(net, ctx, CIFAR10QuickSolver())

	blobs := append([]*Blob(nil), net.Params()...)
	for _, b := range net.blobs {
		blobs = append(blobs, b)
	}
	before := map[*Blob][]float32{}
	for _, b := range blobs {
		b.Diff.Fill(sentinel)
		before[b] = slices.Clone(b.Data.Data())
	}

	ctx.Compute = false
	if _, err := solver.Step(); err != nil {
		t.Fatal(err)
	}
	for _, b := range blobs {
		for i, v := range b.Diff.Data() {
			if v != sentinel {
				t.Fatalf("%s: Diff[%d] = %v after a timing-only step, want it untouched", b.Name, i, v)
			}
		}
		for i, v := range b.Data.Data() {
			if math.Float32bits(v) != math.Float32bits(before[b][i]) {
				t.Fatalf("%s: Data[%d] changed in a timing-only step", b.Name, i)
			}
		}
	}
	timingOnly := rec.stream

	rec.stream = nil
	ctx.Compute = true
	if _, err := solver.Step(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(timingOnly, rec.stream) {
		t.Fatalf("timing-only step launched %d kernels, the real step %d, or they differ in name, tag or FLOPs",
			len(timingOnly), len(rec.stream))
	}
	if len(rec.stream) == 0 {
		t.Fatal("no kernel launched")
	}

	fresh := buildTinyNet(t, 4, 31)
	fillTinyInputs(t, fresh, 32)
	if _, err := NewSolver(fresh, NewContext(HostLauncher{}, 33), CIFAR10QuickSolver()).Step(); err != nil {
		t.Fatal(err)
	}
	for pi, p := range net.Params() {
		want := fresh.Params()[pi].Data.Data()
		for i, v := range p.Data.Data() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v after timing-only then real step, a fresh net's real step gives %v",
					p.Name, i, v, want[i])
			}
		}
	}
}

// TestTimingOnlyConvPacksNothing: a timing-only conv pass never reads W —
// its closures never run, so it packs no weights, forward or backward. The
// weight tensor is swapped for an empty one, which any packing would
// refuse with a panic.
func TestTimingOnlyConvPacksNothing(t *testing.T) {
	for _, k := range []int{1, 3} {
		l := NewConv("conv", Conv(16, k, 1, k/2))
		bottom, top := NewBlob("x", 2, 8, 6, 6), NewBlob("y", 1)
		ctx := NewContext(HostLauncher{}, 1)
		if err := l.Setup(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
			t.Fatal(err)
		}
		l.weight.Data = tensor.New(0)
		ctx.Compute = false
		if err := l.Forward(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
			t.Fatal(err)
		}
		if err := l.Backward(ctx, []*Blob{top}, []bool{true}, []*Blob{bottom}); err != nil {
			t.Fatal(err)
		}
	}
}
