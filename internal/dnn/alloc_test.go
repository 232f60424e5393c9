package dnn

import (
	"math/rand"
	"testing"

	"repro/internal/simgpu"
)

// countLauncher runs closures inline at width 2 and counts launches, and
// those without a closure.
type countLauncher struct{ n, bare int }

func (l *countLauncher) BeginLayer(string) {}
func (l *countLauncher) Launch(k *simgpu.Kernel, _ int) error {
	l.n++
	if k.Fn == nil {
		l.bare++
		return nil
	}
	k.Fn()
	return nil
}
func (l *countLauncher) Sync() error { return nil }
func (l *countLauncher) Width() int  { return 2 }

// TestConvSteadyStateAllocs pins a real-math conv Forward + Backward at
// one closure and one kernel descriptor per launch that runs host work —
// W packed once per pass, its floats and every per-chain scratch leased
// from the warm arena — and a 1×1 shortcut conv, whose im2col launches
// carry no closure, below that.
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
		pass() // warm the arena
		*rec = countLauncher{}
		pass()
		want := 2*rec.n - rec.bare
		if g.k == 1 && rec.bare != 2*bottom.Num() {
			t.Errorf("%s: %d launches without a closure, want its %d im2col launches", g.name, rec.bare, 2*bottom.Num())
		}
		if allocs := testing.AllocsPerRun(10, pass); allocs != float64(want) {
			t.Errorf("%s: Forward + Backward allocates %.1f objects for %d launches (%d without a closure), want %d",
				g.name, allocs, rec.n, rec.bare, want)
		}
	}
}
