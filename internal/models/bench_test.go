package models

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// BenchmarkTimingOnlyStep is one Compute=false solver step of each paper
// net at its sim-paper batch on a P100 through core.Runtime: the loop the
// repo's benchmark times on `sim-paper`. With -cpuprofile it answers "where
// does a simulated step's host time go" (`make bench-sim`).
func BenchmarkTimingOnlyStep(b *testing.B) {
	for _, c := range []struct {
		net   string
		batch int
	}{{"CIFAR10", 100}, {"Siamese", 64}, {"GoogLeNet", 32}, {"CaffeNet", 32}} {
		// Built on first use and kept across the b.N calibration calls, so
		// a profile holds one build and then steps only.
		var step func() error
		b.Run(c.net, func(sb *testing.B) {
			if step == nil {
				w, err := Get(c.net)
				if err != nil {
					sb.Fatal(err)
				}
				dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1))
				fw := core.New()
				b.Cleanup(fw.Close)
				ctx := dnn.NewContext(fw.Runtime(dev), 1)
				ctx.Compute = false
				net, err := w.Build(ctx, c.batch, 1)
				if err != nil {
					sb.Fatal(err)
				}
				solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
				step = func() error {
					if err := dev.ResetClocks(); err != nil {
						return err
					}
					if _, err := solver.Step(); err != nil {
						return err
					}
					_, err := dev.Synchronize()
					return err
				}
				// Profile, analyse, first steady step: every timed step
				// runs the analysed plans.
				for i := 0; i < 3; i++ {
					if err := step(); err != nil {
						sb.Fatal(err)
					}
				}
			}
			sb.ReportAllocs()
			sb.ResetTimer()
			for i := 0; i < sb.N; i++ {
				if err := step(); err != nil {
					sb.Fatal(err)
				}
			}
		})
	}
}
