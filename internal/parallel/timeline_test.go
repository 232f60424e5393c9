package parallel

import (
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// stepPin is the virtual-timeline and accounting fingerprint of one
// Trainer.Step.
type stepPin struct {
	compute, comm, overlapped, iter time.Duration
	buckets                         int
}

func pinOf(r StepResult) stepPin {
	return stepPin{r.ComputeTime, r.CommTime, r.OverlappedComm, r.IterTime, r.BucketsReduced}
}

// timelineArm runs CIFAR10 on P100 replicas (serial launcher, so the virtual
// clock is exact) for three steps and returns every step's pin plus
// the trainer's final CommStats. lossAfter > 0 permanently loses device 1 at
// that op, so the step that hits it is re-run post-eviction.
func timelineArm(t *testing.T, replicas int, compute, blocking bool, lossAfter int64) ([]stepPin, CommStats) {
	t.Helper()
	w, err := models.Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	devs := make([]*simgpu.Device, replicas)
	for i := range devs {
		var opts []simgpu.Option
		if i == 1 {
			opts = append(opts, simgpu.WithInjector(simgpu.FaultPlan{Seed: 1, DeviceLossAfter: lossAfter}.Injector()))
		}
		if devs[i], err = simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 5)
	}, Config{
		Solver:            chaosSolver(),
		Compute:           compute,
		Seed:              5,
		Elastic:           lossAfter > 0,
		BlockingAllReduce: blocking,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var feed FeedFunc
	if compute {
		feed = workloadFeeder(w, batch, 1000)
	}
	var pins []stepPin
	for i := 0; i < 3; i++ {
		res, err := tr.Step(feed)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		pins = append(pins, pinOf(res))
	}
	if lossAfter > 0 && tr.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", tr.Evictions())
	}
	return pins, tr.CommStats()
}

// TestStepTimelinePinned holds the single step body to the virtual timeline
// and comm accounting the separate healthy, blocking and degraded bodies
// produced before they were merged (values recorded at commit 40cb54e). Times
// do not depend on Compute; bucket counts are reported only with real math,
// and the healthy blocking arm reports none (it models one monolithic ring).
func TestStepTimelinePinned(t *testing.T) {
	// Durations are nanoseconds of virtual time.
	healthy2 := stepPin{1794344, 15354, 73170, 1876698, 4}
	blocking2 := stepPin{1794344, 58526, 0, 1919870, 0}
	healthy3 := stepPin{1794344, 28472, 116227, 1889816, 4}
	blocking3 := stepPin{1794344, 84701, 0, 1946045, 0}
	// One survivor of two: both shards back to back, no ring left.
	alone := stepPin{3578688, 0, 0, 3645688, 4}
	// Two survivors of three: the heir's two passes, the full ring exposed.
	degraded3 := stepPin{3578688, 58526, 0, 3704214, 4}
	arms := []struct {
		name     string
		replicas int
		blocking bool
		loss     int64
		steps    [3]stepPin
		// commSteps is CommStats.Steps; timing-only degraded steps with one
		// survivor account nothing, so it depends on Compute.
		commSteps, commStepsTiming int64
	}{
		{"overlapped", 2, false, 0, [3]stepPin{healthy2, healthy2, healthy2}, 3, 3},
		{"blocking", 2, true, 0, [3]stepPin{blocking2, blocking2, blocking2}, 3, 3},
		{"evicted", 2, false, 150, [3]stepPin{healthy2, alone, alone}, 3, 1},
		{"evicted-blocking", 2, true, 150, [3]stepPin{blocking2, alone, alone}, 3, 1},
		{"evicted-of-3", 3, false, 150, [3]stepPin{healthy3, degraded3, degraded3}, 3, 3},
		{"evicted-of-3-blocking", 3, true, 150, [3]stepPin{blocking3, degraded3, degraded3}, 3, 3},
	}
	for _, arm := range arms {
		for _, compute := range []bool{false, true} {
			pins, cs := timelineArm(t, arm.replicas, compute, arm.blocking, arm.loss)
			want := CommStats{Steps: arm.commStepsTiming, Blocking: arm.blocking, BucketBytes: DefaultBucketBytes}
			if compute {
				want.Steps = arm.commSteps
			}
			for i, p := range arm.steps {
				if !compute {
					p.buckets = 0
				}
				if pins[i] != p {
					t.Errorf("%s compute=%v step %d: got %+v, want %+v", arm.name, compute, i, pins[i], p)
				}
				want.Buckets += int64(p.buckets)
				want.Overlapped += p.overlapped
				if p.comm > 0 || compute {
					want.Exposed += p.comm
				}
			}
			if want.Steps > 0 {
				want.BucketsPerStep = float64(want.Buckets) / float64(want.Steps)
			}
			if cs != want {
				t.Errorf("%s compute=%v CommStats: got %+v, want %+v", arm.name, compute, cs, want)
			}
		}
	}
}
