package models

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// fig7Nets are the Fig. 7 nets at the batches the benchmark's sim-paper
// workload runs them.
var fig7Nets = []struct {
	name  string
	batch int
}{{"CIFAR10", 100}, {"Siamese", 64}, {"GoogLeNet", 32}, {"CaffeNet", 32}}

// buildTimingOnly builds a paper net for timing-only (Compute=false) steps,
// once, to be shared by every arm that steps it.
func buildTimingOnly(tb testing.TB, name string, batch int) *dnn.Net {
	tb.Helper()
	w, err := Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
	ctx.Compute = false
	net, err := w.Build(ctx, batch, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// timingOnlyArm is one arm of one Fig. 7 cell as sim-paper runs it: a
// timing-only solver over net on its own device, naive (every kernel on the
// default stream) or through core.Runtime. step resets the clocks, runs one
// training iteration and drains the device.
func timingOnlyArm(tb testing.TB, net *dnn.Net, spec simgpu.DeviceSpec, glp bool, opts ...simgpu.Option) (dev *simgpu.Device, step func() error) {
	dev = simgpu.NewDevice(spec, opts...)
	var l dnn.Launcher = dnn.SerialLauncher{Dev: dev}
	if glp {
		fw := core.New()
		tb.Cleanup(fw.Close)
		l = fw.Runtime(dev)
	}
	ctx := dnn.NewContext(l, 1)
	ctx.Compute = false
	solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
	return dev, func() error {
		if err := dev.ResetClocks(); err != nil {
			return err
		}
		if _, err := solver.Step(); err != nil {
			return err
		}
		_, err := dev.Synchronize()
		return err
	}
}

// BenchmarkTimingOnlyStep is one Compute=false solver step of each paper
// net at its sim-paper batch, on the K40C (the wave-heavy device: CaffeNet
// runs ~6 engine events per launch there) and the P100, naive and through
// core.Runtime: the loop the repo's benchmark times on `sim-paper`. With
// -cpuprofile it answers "where does a simulated step's host time go"
// (`make bench-sim`).
func BenchmarkTimingOnlyStep(b *testing.B) {
	for _, n := range fig7Nets {
		var net *dnn.Net
		for _, spec := range []simgpu.DeviceSpec{simgpu.TeslaK40C, simgpu.TeslaP100} {
			for _, arm := range []string{"naive", "glp4nn"} {
				// Built on first use and kept across the b.N calibration
				// calls, so a profile holds one build and then steps only.
				var step func() error
				b.Run(n.name+"/"+spec.Name+"/"+arm, func(sb *testing.B) {
					if step == nil {
						if net == nil {
							net = buildTimingOnly(sb, n.name, n.batch)
						}
						_, step = timingOnlyArm(b, net, spec, arm == "glp4nn", simgpu.WithTraceLimit(1))
						// Profile, analyse, first steady step: every timed
						// step runs the analysed plans.
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
	}
}
