package dnn

import (
	"math/rand"
	"testing"

	"repro/internal/simgpu"
)

// countLauncher counts launches at width 2.
type countLauncher struct{ n int }

func (l *countLauncher) BeginLayer(string) {}
func (l *countLauncher) Launch(*simgpu.Kernel, int) error {
	l.n++
	return nil
}
func (l *countLauncher) Sync() error { return nil }
func (l *countLauncher) Width() int  { return 2 }

// TestConvSteadyStateAllocs pins a warm real-math conv Forward + Backward
// at zero allocations: its descriptors and closures are built once in
// Setup, W is packed once per pass, and its floats and every per-chain
// scratch are leased from the warm arena. A 1×1 shortcut conv's im2col
// sites carry no host work at all.
func TestConvSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	for _, g := range []struct {
		name string
		k, p int
	}{{"3x3p1", 3, 1}, {"1x1", 1, 0}} {
		l := NewConv("conv", Conv(48, g.k, 1, g.p))
		bottom, top := NewBlob("x", 4, 16, 9, 9), NewBlob("y", 1)
		rng := rand.New(rand.NewSource(1))
		for i := range bottom.Data.Data() {
			bottom.Data.Data()[i] = rng.Float32()
		}
		rec := &countLauncher{}
		ctx := NewContext(rec, 1)
		if err := l.Setup(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
			t.Fatal(err)
		}
		pass := func() {
			if err := l.Forward(ctx, []*Blob{bottom}, []*Blob{top}); err != nil {
				t.Fatal(err)
			}
			if err := l.Backward(ctx, []*Blob{top}, []bool{true}, []*Blob{bottom}); err != nil {
				t.Fatal(err)
			}
		}
		pass() // warm the arena and the fold sites
		*rec = countLauncher{}
		pass()
		if g.k == 1 {
			for i := range l.tags {
				if l.fwdIm2col[i].fn != nil || l.bwdIm2col[i].fn != nil {
					t.Errorf("%s: image %d's im2col carries host work", g.name, i)
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("%s: Forward + Backward allocates %.1f objects for %d launches, want 0", g.name, allocs, rec.n)
		}
	}
}
