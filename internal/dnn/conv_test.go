package dnn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hostpool"
	"repro/internal/kernels"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// launchRecord is what the simulator sees of one launch.
type launchRecord struct {
	name, tag string
	cfg       simgpu.LaunchConfig
	cost      simgpu.Cost
	chain     int
}

// recordLauncher runs closures inline at a fixed width and records every
// launch in submission order.
type recordLauncher struct {
	width int
	recs  []launchRecord
}

func (l *recordLauncher) BeginLayer(string) {}
func (l *recordLauncher) Launch(k *simgpu.Kernel, chain int) error {
	l.recs = append(l.recs, launchRecord{k.Name, k.Tag, k.Config, k.Cost, chain})
	if k.Fn != nil {
		k.Fn()
	}
	return nil
}
func (l *recordLauncher) Sync() error { return nil }
func (l *recordLauncher) Width() int  { return l.width }

// perCallConvPass is the conv pass as it ran before the layer packed its
// weights once and read a 1×1 conv's image in place: im2col into per-chain
// column buffers, and GEMMs that pack their A operand call by call. It is
// the reference the layer's kernel stream and bits are held to.
func perCallConvPass(ctx *Context, l *ConvLayer, bottom, top *Blob, backward bool) error {
	width, n := ctx.Width(), bottom.Num()
	par, w := ctx.RowPar(), l.weight.Data.Data()
	cols, dcols := make([][]float32, width), make([][]float32, width)
	partW, partB := make([][]float32, width), make([][]float32, width)
	for j := range cols {
		cols[j], dcols[j] = make([]float32, l.k*l.p), make([]float32, l.k*l.p)
		partW[j], partB[j] = make([]float32, l.weight.Count()), make([]float32, l.co)
	}
	var bias []float32
	if l.fuseBias {
		bias = l.bias.Data.Data()
	}
	for i := 0; i < n; i++ {
		j, img, tag := i%width, bottom.SampleData(i), l.tags[i]
		ks := []*simgpu.Kernel{kernels.Im2col(tag, img, l.geom, cols[j])}
		switch {
		case backward:
			dtop := top.SampleDiff(i)
			ks = append(ks,
				kernels.Sgemm(tag, par, nil, false, true, l.co, l.k, l.p, 1, dtop, cols[j], 1, partW[j], nil, 0),
				kernels.BiasBackward(tag, l.co, l.p, dtop, l.onesP, partB[j]),
				kernels.Sgemm(tag, par, nil, true, false, l.k, l.p, l.co, 1, w, dtop, 0, dcols[j], nil, 0),
				kernels.Col2im(tag, dcols[j], l.geom, bottom.SampleDiff(i)))
		case bias != nil || l.fusedReLU != nil:
			epi, ops := l.fusionEpilogue(bias, i)
			ks = append(ks, kernels.Sgemm(tag, par, nil, false, false, l.co, l.p, l.k, 1, w, cols[j], 0, top.SampleData(i), epi, ops))
		default:
			ks = append(ks, kernels.Sgemm(tag, par, nil, false, false, l.co, l.p, l.k, 1, w, cols[j], 0, top.SampleData(i), nil, 0),
				kernels.BiasGemm(tag, l.co, l.p, l.bias.Data.Data(), l.onesP, top.SampleData(i)))
		}
		for _, k := range ks {
			if err := ctx.Dispatch(k, i); err != nil {
				return err
			}
		}
	}
	if err := ctx.Barrier(); err != nil || !backward {
		return err
	}
	for _, fold := range []struct {
		name  string
		parts [][]float32
		into  []float32
	}{{"axpy_fold_w", partW, l.weight.Diff.Data()}, {"axpy_fold_b", partB, l.bias.Diff.Data()}} {
		for _, part := range fold.parts {
			into := fold.into
			if err := ctx.Dispatch(kernels.AxpyKernel(fold.name, l.name, len(part), func() { tensor.Axpy(1, part, into) }), -1); err != nil {
				return err
			}
		}
	}
	return ctx.Barrier()
}

// sprinkle zeroes about pct % of s, the sparsity of a ReLU output or a
// pruned weight.
func sprinkle(rng *rand.Rand, s []float32, pct int) {
	for i := range s {
		if rng.Intn(100) < pct {
			s[i] = 0
		}
	}
}

// TestConvMatchesPerCallPath holds the conv layer — weights packed once per
// pass, the 1×1 stride-1 unpadded shortcut reading the image as its column
// matrix — to the per-call path over every geometry class, on serial and
// pooled contexts at widths 1, 3 and 6, fused and unfused: top (and the fused
// ReLU top), bottom diff, weight diff and bias diff bit for bit, and the
// kernel stream launch by launch.
func TestConvMatchesPerCallPath(t *testing.T) {
	pool := hostpool.New(3)
	const n, c, hw, co = 7, 12, 11, 64
	for _, g := range []struct{ k, s, p int }{{1, 1, 0}, {1, 2, 0}, {1, 1, 1}, {3, 1, 1}, {5, 1, 2}, {11, 4, 0}} {
		rng := rand.New(rand.NewSource(int64(g.k*100 + g.s*10 + g.p)))
		x := randBlob("x", rng.Int63(), n, c, hw, hw)
		sprinkle(rng, x.Data.Data(), 50)
		for _, pooled := range []bool{false, true} {
			for _, width := range []int{1, 3, 6} {
				for _, fuse := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d_s%d_p%d/pooled=%v/width=%d/fuse=%v", g.k, g.k, g.s, g.p, pooled, width, fuse)
					type result struct {
						recs                  []launchRecord
						top, relu, dx, dw, db []float32
					}
					pass := func(ref bool) result {
						l := NewConv("conv", Conv(co, g.k, g.s, g.p))
						bottom, top := NewBlob("x", n, c, hw, hw), NewBlob("y", 1)
						copy(bottom.Data.Data(), x.Data.Data())
						if err := l.Setup(NewContext(HostLauncher{}, 1), []*Blob{bottom}, []*Blob{top}); err != nil {
							t.Fatal(err)
						}
						wrng := rand.New(rand.NewSource(5))
						sprinkle(wrng, l.weight.Data.Data(), 30)
						for i := range l.bias.Data.Data() {
							l.bias.Data.Data()[i] = []float32{0, 0.25, -0.5}[i%3]
						}
						relu := NewBlob("r", top.Shape()...)
						if fuse {
							l.fuseBias, l.fusedReLU = true, relu
						}
						rec := &recordLauncher{width: width}
						ctx := NewContext(rec, 1)
						if pooled {
							ctx.Pool = pool
						}
						fwd := func() error { return l.Forward(ctx, []*Blob{bottom}, []*Blob{top}) }
						bwd := func() error { return l.Backward(ctx, []*Blob{top}, []bool{true}, []*Blob{bottom}) }
						if ref {
							fwd = func() error { return perCallConvPass(ctx, l, bottom, top, false) }
							bwd = func() error { return perCallConvPass(ctx, l, bottom, top, true) }
						}
						if err := fwd(); err != nil {
							t.Fatal(err)
						}
						copy(top.Diff.Data(), top.Data.Data())
						sprinkle(rand.New(rand.NewSource(9)), top.Diff.Data(), 40)
						if err := bwd(); err != nil {
							t.Fatal(err)
						}
						return result{rec.recs, top.Data.Data(), relu.Data.Data(), bottom.Diff.Data(), l.weight.Diff.Data(), l.bias.Diff.Data()}
					}
					got, want := pass(false), pass(true)
					for _, b := range []struct {
						what      string
						got, want []float32
					}{{"top", got.top, want.top}, {"relu top", got.relu, want.relu}, {"bottom diff", got.dx, want.dx},
						{"weight diff", got.dw, want.dw}, {"bias diff", got.db, want.db}} {
						if !bitsEqual(b.got, b.want) {
							t.Fatalf("%s: %s differs from the per-call path", name, b.what)
						}
					}
					if len(got.recs) != len(want.recs) {
						t.Fatalf("%s: %d launches, per-call path %d", name, len(got.recs), len(want.recs))
					}
					for i := range got.recs {
						if got.recs[i] != want.recs[i] {
							t.Fatalf("%s: launch %d = %+v, per-call path %+v", name, i, got.recs[i], want.recs[i])
						}
					}
				}
			}
		}
	}
}
