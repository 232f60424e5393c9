package parallel

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// Elastic chaos suite: a device that is permanently lost mid-training is
// evicted and its batch shard is reassigned to survivors, and the trained
// parameters must stay bitwise identical to the healthy N-device run —
// batch composition, fold order, and RNG consumption are properties of the
// plan, not of the live device count (see elastic.go).

type elasticResult struct {
	params    [][]float32 // first survivor's parameters
	lossBits  []uint64    // per-step MeanLoss bit patterns
	evictions int
	moves     int
	survivors int
	ops       int64 // failable ops device 1 dispatched (for picking loss points)
}

// runElastic trains one workload on a two-device elastic trainer. plan1,
// when non-nil, is the fault plan of device 1; device 0 stays healthy so
// the run can always finish. A zero plan still counts device 1's failable
// ops, so a clean run doubles as the probe that picks a mid-run loss point.
func runElastic(t *testing.T, w *models.Workload, batch, steps int, plan1 *simgpu.FaultPlan, stepRetries int) elasticResult {
	t.Helper()
	dev0, err := simgpu.NewDeviceChecked(simgpu.TeslaP100)
	if err != nil {
		t.Fatal(err)
	}
	var p1 simgpu.FaultPlan
	if plan1 != nil {
		p1 = *plan1
	}
	in1 := p1.Injector()
	dev1, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, simgpu.WithInjector(in1))
	if err != nil {
		t.Fatal(err)
	}
	machine := simgpu.NewMachineFromDevices(dev0, dev1)
	tr, err := NewTrainer(machine, func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 5)
	}, Config{
		Solver:      chaosSolver(),
		UseGLP:      true,
		Compute:     true,
		Seed:        5,
		HostPool:    hostpool.New(4),
		StepRetries: stepRetries,
		Elastic:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	feed := workloadFeeder(w, batch, 1000)
	res := elasticResult{}
	for i := 0; i < steps; i++ {
		sr, err := tr.Step(feed)
		if err != nil {
			t.Fatalf("%s step %d did not survive: %v", w.Name, i, err)
		}
		res.lossBits = append(res.lossBits, math.Float64bits(sr.MeanLoss))
	}
	for _, p := range tr.ActiveNet().Params() {
		res.params = append(res.params, append([]float32(nil), p.Data.Data()...))
	}
	res.evictions = tr.Evictions()
	res.moves = tr.ShardMoves()
	res.survivors = tr.Survivors()
	res.ops = in1.Ops()
	return res
}

// TestDeviceLossSoakConvergenceInvariant is the headline elastic soak: on
// all four paper workloads, a run that permanently loses one of its two
// devices mid-training must finish with parameters — and every per-step
// mean loss — bitwise identical to the uninterrupted healthy run, with
// nonzero eviction counters on the trainer.
func TestDeviceLossSoakConvergenceInvariant(t *testing.T) {
	cases := []struct {
		name         string
		batch, steps int
	}{
		{"CIFAR10", 4, 3},
		{"Siamese", 4, 3},
		{"CaffeNet", 2, 2}, // ~6 GFLOP per image on the host: keep it small
		{"GoogLeNet", 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, err := models.Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			clean := runElastic(t, w, c.batch, c.steps, nil, 0)
			if clean.evictions != 0 || clean.survivors != 2 {
				t.Fatalf("clean run evicted: %+v", clean)
			}
			// Kill device 1 roughly halfway through its healthy op stream.
			lossAt := clean.ops / 2
			if lossAt < 1 {
				t.Fatalf("probe counted %d ops; loss point undefined", clean.ops)
			}
			lost := runElastic(t, w, c.batch, c.steps,
				&simgpu.FaultPlan{Seed: 77, DeviceLossAfter: lossAt}, 4)
			if lost.evictions != 1 || lost.survivors != 1 || lost.moves == 0 {
				t.Fatalf("device loss did not evict: %+v", lost)
			}
			for i := range clean.lossBits {
				if clean.lossBits[i] != lost.lossBits[i] {
					t.Fatalf("step %d mean loss diverged: %x vs %x",
						i, clean.lossBits[i], lost.lossBits[i])
				}
			}
			assertBitwiseEqual(t, w.Name, lost.params, clean.params)
			t.Logf("%s: device 1 lost at op %d/%d, %d shard(s) moved, bits intact",
				w.Name, lossAt, clean.ops, lost.moves)
		})
	}
}

// TestDeviceLossUnderTransientStorm: device loss and a transient fault
// storm on the surviving device at the same time — eviction and rollback
// recovery compose, and the bits still match the healthy run.
func TestDeviceLossUnderTransientStorm(t *testing.T) {
	w, err := models.Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	run := func(plans []simgpu.FaultPlan, retries int) elasticResult {
		devs := make([]*simgpu.Device, 2)
		var ins []*simgpu.PlanInjector
		for i := range devs {
			var opts []simgpu.Option
			if plans != nil {
				in := plans[i].Injector()
				ins = append(ins, in)
				opts = append(opts, simgpu.WithInjector(in))
			}
			dev, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = dev
		}
		tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
			return w.Build(ctx, 4, 5)
		}, Config{
			Solver:      chaosSolver(),
			UseGLP:      true,
			Compute:     true,
			Seed:        5,
			HostPool:    hostpool.New(4),
			StepRetries: retries,
			Elastic:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		feed := workloadFeeder(w, 4, 1000)
		for i := 0; i < 3; i++ {
			if _, err := tr.Step(feed); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		res := elasticResult{evictions: tr.Evictions(), survivors: tr.Survivors()}
		for _, p := range tr.ActiveNet().Params() {
			res.params = append(res.params, append([]float32(nil), p.Data.Data()...))
		}
		if ins != nil {
			res.ops = ins[1].Ops()
		}
		return res
	}
	clean := run(nil, 0)
	probe := run([]simgpu.FaultPlan{{}, {}}, 0)
	plans := []simgpu.FaultPlan{
		{Seed: 404, Launch: 0.03, Sync: 0.15, CreateStream: 0.10, Memcpy: 0.05, MaxFaults: 40},
		{Seed: 505, DeviceLossAfter: probe.ops / 2},
	}
	stormy := run(plans, 16)
	if stormy.evictions != 1 || stormy.survivors != 1 {
		t.Fatalf("want one eviction with one survivor, got %+v", stormy)
	}
	assertBitwiseEqual(t, "storm+loss", stormy.params, clean.params)
}

// TestEvictionDeterministicSmall pins the eviction mechanics on a
// three-replica serial-launcher trainer: the lost middle replica's shard
// goes to the least-loaded, lowest-index survivor, owners and events
// record it, and per-step losses match the healthy run bit for bit.
func TestEvictionDeterministicSmall(t *testing.T) {
	const steps = 5
	run := func(lossAt int64) ([]uint64, [][]float32, *Trainer, func()) {
		devs := make([]*simgpu.Device, 3)
		for i := range devs {
			var opts []simgpu.Option
			if i == 1 {
				opts = append(opts, simgpu.WithInjector(
					simgpu.FaultPlan{Seed: 3, DeviceLossAfter: lossAt}.Injector()))
			}
			dev, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = dev
		}
		tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), smallBuilder(4, 3), Config{
			Solver:  chaosSolver(),
			Compute: true,
			Seed:    3,
			Elastic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := shardFeeder(4, 11)
		var bits []uint64
		for i := 0; i < steps; i++ {
			sr, err := tr.Step(feed)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			bits = append(bits, math.Float64bits(sr.MeanLoss))
		}
		var ps [][]float32
		for _, p := range tr.ActiveNet().Params() {
			ps = append(ps, append([]float32(nil), p.Data.Data()...))
		}
		return bits, ps, tr, tr.Close
	}
	cleanBits, cleanParams, cleanTr, closeClean := run(0)
	defer closeClean()
	if cleanTr.Evictions() != 0 {
		t.Fatal("clean run evicted")
	}
	lostBits, lostParams, tr, closeLost := run(40) // mid-run for the small net
	defer closeLost()
	if tr.Evictions() != 1 || tr.ShardMoves() != 1 || tr.Survivors() != 2 {
		t.Fatalf("evictions=%d moves=%d survivors=%d, want 1/1/2",
			tr.Evictions(), tr.ShardMoves(), tr.Survivors())
	}
	owners := tr.ShardOwners()
	if owners[0] != 0 || owners[1] != 0 || owners[2] != 2 {
		t.Fatalf("shard owners = %v, want [0 0 2] (heir = least-loaded lowest index)", owners)
	}
	evs := tr.EvictionEvents()
	if len(evs) != 1 || evs[0].Replica != 1 || len(evs[0].Shards) != 1 || evs[0].Shards[0] != 1 {
		t.Fatalf("eviction events = %v", evs)
	}
	for i := range cleanBits {
		if cleanBits[i] != lostBits[i] {
			t.Fatalf("step %d loss diverged after eviction", i)
		}
	}
	assertBitwiseEqual(t, "small-eviction", lostParams, cleanParams)
}

// TestEvictionLastSurvivorRefused: losing every device is terminal — the
// trainer reports it rather than training on nothing.
func TestEvictionLastSurvivorRefused(t *testing.T) {
	devs := make([]*simgpu.Device, 2)
	for i := range devs {
		dev, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, simgpu.WithInjector(
			simgpu.FaultPlan{Seed: int64(i) + 1, DeviceLossAfter: 30}.Injector()))
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), smallBuilder(4, 3), Config{
		Solver:  chaosSolver(),
		Compute: true,
		Seed:    3,
		Elastic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	feed := shardFeeder(4, 11)
	var stepErr error
	for i := 0; i < 20 && stepErr == nil; i++ {
		_, stepErr = tr.Step(feed)
	}
	if stepErr == nil {
		t.Fatal("training survived the loss of every device")
	}
	if tr.Survivors() != 1 {
		t.Fatalf("survivors = %d, want the last one retained", tr.Survivors())
	}
}

// TestDeviceLossWithoutElasticPropagates: with Elastic off, a permanent
// device-loss fault is terminal — not retried (it is not transient), not
// evicted, surfaced to the caller.
func TestDeviceLossWithoutElasticPropagates(t *testing.T) {
	dev0, err := simgpu.NewDeviceChecked(simgpu.TeslaP100)
	if err != nil {
		t.Fatal(err)
	}
	dev1, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, simgpu.WithInjector(
		simgpu.FaultPlan{Seed: 1, DeviceLossAfter: 1}.Injector()))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(simgpu.NewMachineFromDevices(dev0, dev1), smallBuilder(4, 3), Config{
		Solver:      chaosSolver(),
		Compute:     true,
		Seed:        3,
		StepRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, stepErr := tr.Step(shardFeeder(4, 11))
	if stepErr == nil {
		t.Fatal("step on a lost device succeeded without elastic mode")
	}
	if !simgpu.IsDeviceLost(stepErr) {
		t.Fatalf("error does not mark device loss: %v", stepErr)
	}
	if tr.Rollbacks() != 0 {
		t.Fatalf("permanent fault consumed %d rollback retries", tr.Rollbacks())
	}
	if tr.Evictions() != 0 || tr.Survivors() != 2 {
		t.Fatal("non-elastic trainer evicted a replica")
	}
}
