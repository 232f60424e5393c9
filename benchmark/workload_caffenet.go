package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/simgpu"
)

const caffeReplicas = 2

// caffeStepsPerSecond: a step takes 1.2-1.5 s on the reference box.
const caffeStepsPerSecond = 0.7

func runCaffeNet2Replica(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	m := res.Metrics
	netName, batch := "CaffeNet", 2
	if cfg.Quick {
		netName, batch = "CIFAR10", 8
	}
	w, err := models.Get(netName)
	if err != nil {
		return nil, err
	}
	spec, _ := simgpu.DeviceByName("P100")
	devs := make([]*simgpu.Device, caffeReplicas)
	for i := range devs {
		devs[i] = simgpu.NewDevice(spec)
	}
	var tr *tracer
	var ra *recordAgg
	if cfg.Mode == modeTraced {
		// Replicas run through pooled contexts, so there is no launcher
		// wrapper here: phase spans, and replica 0's completion records.
		tr = newTracer()
		ra = newRecordAgg()
		devs[0].Subscribe(ra.observe)
	}

	// Every Config field not named stays zero: no StepRetries, Elastic or
	// Adaptive (a per-step checkpoint of 62 M parameters doubles RSS).
	pc := parallel.Config{
		Solver:   dnn.CIFAR10QuickSolver(),
		Bus:      parallel.PCIe3,
		UseGLP:   true,
		Compute:  true,
		Seed:     cfg.Seed,
		HostPool: hostpool.New(procs()),
	}
	if cfg.Mode == modeReference {
		pc.HostPool, pc.BlockingAllReduce = nil, true
	}
	var buildWall time.Duration
	trainer, err := parallel.NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
		s := tr.begin("models.build", -1, -1)
		t0 := time.Now()
		net, err := w.Build(ctx, batch, cfg.Seed)
		buildWall += time.Since(t0)
		tr.end(s)
		return net, err
	}, pc)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			trainer.Close()
		}
	}()
	m["models.build.wall_ms"] = ms(buildWall)
	if st, err := trainer.Net(0).DAGStats(); err == nil {
		m["dnn.dag.wavefront_max"] = float64(st.MaxWavefront)
	}
	m["dnn.fused_sites"] = 0

	// Shard s always draws from stream seed+1+17s, as the CLI does.
	feeders := make([]models.Feeder, caffeReplicas)
	for s := range feeders {
		feeders[s] = w.NewFeeder(batch, cfg.Seed+1+int64(s)*17)
	}
	var feedWall time.Duration
	stepID := 0
	var stepSpan int
	feed := func(s int, net *dnn.Net) error {
		sp := tr.begin("parallel.feed", stepSpan, stepID)
		t0 := time.Now()
		err := feeders[s](net)
		feedWall += time.Since(t0)
		tr.end(sp)
		return err
	}
	step := func() (parallel.StepResult, time.Duration, error) {
		stepSpan = tr.begin("parallel.step", -1, stepID)
		t0 := time.Now()
		sr, err := trainer.Step(feed)
		wall := time.Since(t0)
		tr.end(stepSpan)
		stepID++
		if ra != nil {
			ra.foldStep()
		}
		return sr, wall, err
	}

	var warmIter, warmCompute []time.Duration
	for i := 0; i < warmupSteps; i++ {
		sr, _, err := step()
		if err != nil {
			return nil, fmt.Errorf("warm-up step %d: %w", i, err)
		}
		warmIter = append(warmIter, sr.IterTime)
		warmCompute = append(warmCompute, sr.ComputeTime)
	}
	m["setup_s"] = time.Since(cfg.Start).Seconds()

	runtime.GC()
	if ra != nil {
		ra.reset()
	}
	fw := trainer.Framework()
	before := make([]counters, caffeReplicas)
	for i, d := range devs {
		st, err := d.Stats()
		if err != nil {
			return nil, err
		}
		before[i] = counters{dev: st, ledger: fw.Runtime(d).Ledger().Snapshot()}
	}
	feedWall = 0
	var steps []parallel.StepResult
	var walls []float64
	m0 := mallocs()
	for want := stepCount(cfg, caffeStepsPerSecond); len(steps) < want; {
		sr, wall, err := step()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.check("training-steps", false, "%v", err)
			return res, nil
		}
		steps = append(steps, sr)
		walls = append(walls, ms(wall))
	}
	allocs := mallocs() - m0
	res.Hash, res.Steps = paramHash(trainer.Net(0)), len(steps)
	other := paramHash(trainer.Net(1))
	res.check("replicas-in-sync", other == res.Hash, "replica 0 hashes to %s, replica 1 to %s", res.Hash, other)
	if cfg.Mode == modeReference {
		return res, nil
	}

	n := len(steps)
	pick := func(f func(parallel.StepResult) time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i, s := range steps {
			out[i] = f(s)
		}
		return out
	}
	iter, jitter := steadyOf(res, "steady-virtual", pick(func(s parallel.StepResult) time.Duration { return s.IterTime }), 0)
	compute, _ := steadyOf(res, "steady-compute", pick(func(s parallel.StepResult) time.Duration { return s.ComputeTime }), 0)
	exposed, _ := steadyOf(res, "steady-comm", pick(func(s parallel.StepResult) time.Duration { return s.CommTime }), 0)
	overlapped, _ := steadyOf(res, "steady-overlap", pick(func(s parallel.StepResult) time.Duration { return s.OverlappedComm }), 0)
	m["simgpu.steady_step_jitter_pct"] = jitter
	windowS := sum(walls) / 1e3 // the rates are sustained ones, over the whole window
	m["simgpu.steady_step_virtual_ms"] = ms(iter)
	m["step_virtual_ms"] = ms(amortized(warmIter, iter))
	m["scaling_eff_virtual"] = float64(iter-exposed) / float64(iter)
	m["step_wall_ms_p50"] = median(walls)
	m["dnn.step.wall_ms_min"], _ = minMax(walls)
	m["parallel.step.wall_ms_p50"] = median(walls)
	m["samples_per_s"] = float64(caffeReplicas*batch*n) / windowS
	m["parallel.samples_per_s"] = m["samples_per_s"]
	m["allocs_per_step"] = float64(allocs) / float64(n)
	m["parallel.compute_virtual_ms"] = ms(compute)
	m["parallel.exposed_comm_virtual_ms"] = ms(exposed)
	m["parallel.overlapped_comm_virtual_ms"] = ms(overlapped)
	if exposed+overlapped > 0 {
		m["parallel.hidden_pct"] = 100 * float64(overlapped) / float64(exposed+overlapped)
	}
	m["parallel.ring_virtual_ms"] = ms(parallel.PCIe3.AllReduceTime(caffeReplicas, trainer.GradientBytes()))
	m["parallel.buckets_per_step"] = float64(steps[n-1].BucketsReduced)
	m["parallel.grad_mb"] = float64(trainer.GradientBytes()) / (1 << 20)
	m["parallel.feed.wall_ms"] = ms(feedWall) / float64(n)
	m["data.feed.wall_ms"] = m["parallel.feed.wall_ms"]
	m["parallel.rollbacks"] = float64(trainer.Rollbacks())
	m["parallel.evictions"] = float64(trainer.Evictions())

	var led ledgerAgg
	var launches, syncs, lost int64
	for i, d := range devs {
		st, err := d.Stats()
		if err != nil {
			return nil, err
		}
		launches += st.Launches - before[i].dev.Launches
		syncs += st.Syncs - before[i].dev.Syncs - 1 // the Stats read itself
		lost += st.RecordsLost
		led.add(fw.Runtime(d), before[i].ledger, fw.Runtime(d).Ledger().Snapshot(), n, iter)
	}
	led.emit(res)
	m["sim_launches_per_s"] = float64(launches) / windowS
	m["simgpu.launches_per_step"] = float64(launches) / float64(n*caffeReplicas)
	m["simgpu.syncs_per_step"] = float64(syncs) / float64(n*caffeReplicas)
	m["simgpu.records_lost"] = float64(lost)

	if tr != nil {
		// The trainer resets each device's clocks between backward and the
		// update, so per-step work comes from the completion records.
		var flops, bytes float64
		for _, kv := range ra.keys {
			flops += kv.flops
			bytes += kv.bytes
		}
		m["simgpu.flops_per_step"] = flops / float64(n)
		m["simgpu.bytes_per_step"] = bytes / float64(n)
		m["simgpu.concurrency_mean"] = float64(ra.busy) / (float64(n) * float64(compute))
		t0 := time.Now()
		sp := tr.begin("parallel.checkpoint", -1, -1)
		_ = trainer.Checkpoint()
		tr.end(sp)
		m["parallel.checkpoint.wall_ms"] = ms(time.Since(t0))
		path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, tr, keyRows(nil, ra))
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}

	// The naive arm of glp_speedup_x: forward + backward of replica 0's
	// net under the serial launcher, against the replicas' compute phase
	// (the ring and the update are the same under either launcher).
	net0 := trainer.Net(0)
	trainer.Close()
	closed = true
	naive, err := naiveStep(net0, spec, cfg.Seed, false)
	if err != nil {
		return nil, fmt.Errorf("naive arm: %w", err)
	}
	m["glp_speedup_x"] = float64(naive) / float64(amortized(warmCompute, compute))
	return res, nil
}
