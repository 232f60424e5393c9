// Command glp4nn-train trains one of the paper's workloads on a simulated
// GPU, with or without GLP4NN, and reports per-iteration loss, virtual
// timing and the framework's overhead ledger.
//
// Examples:
//
//	glp4nn-train -net CIFAR10 -iters 50 -device P100 -glp4nn
//	glp4nn-train -net GoogLeNet -iters 10 -device P100 -glp4nn -dag
//	glp4nn-train -net Siamese -iters 20 -device K40C
//	glp4nn-train -net CaffeNet -batch 16 -iters 3 -device TitanXP -glp4nn -compute=false
//	glp4nn-train -net CIFAR10 -iters 40 -devices 2 -glp4nn -checkpoint-dir ckpt -checkpoint-every 10
//	glp4nn-train -net CIFAR10 -iters 40 -devices 2 -glp4nn -checkpoint-dir ckpt -resume
//	glp4nn-train -net CIFAR10 -iters 40 -devices 2 -glp4nn -fault-devloss-after 500
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/simgpu"
)

// checkpointFile is the rolling durable checkpoint name inside
// -checkpoint-dir. Writes are atomic (temp + fsync + rename), so the file
// always holds the last complete checkpoint even across a crash mid-write.
const checkpointFile = "checkpoint.glpc"

// runOptions carries one training run's full configuration.
type runOptions struct {
	Net         string
	Batch       int
	Iters       int
	Device      string
	GLP         bool
	DAG         bool
	Fuse        bool
	Prefetch    bool
	Compute     bool
	Seed        int64
	LogEvery    int
	Trace       string
	SaveWeights string
	Fault       simgpu.FaultPlan

	// Data-parallel elastic training (devices ≥ 2 or any checkpoint flag
	// selects the trainer path).
	Devices         int
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	Bus             string
	BucketKB        int
	BlockingComm    bool
	Adapt           bool
}

func main() {
	var o runOptions
	flag.StringVar(&o.Net, "net", "CIFAR10", "workload: CIFAR10, Siamese, CaffeNet or GoogLeNet")
	flag.IntVar(&o.Batch, "batch", 0, "batch size (0 = paper default)")
	flag.IntVar(&o.Iters, "iters", 20, "training iterations")
	flag.StringVar(&o.Device, "device", "P100", "simulated GPU: K40C, P100 or TitanXP")
	flag.BoolVar(&o.GLP, "glp4nn", false, "train through GLP4NN instead of the serial baseline")
	flag.BoolVar(&o.DAG, "dag", false, "execute independent layers concurrently (operator DAG scheduler; bits unchanged)")
	flag.BoolVar(&o.Fuse, "fuse", false, "fuse bias/ReLU epilogues into the GEMM kernels (bits unchanged)")
	flag.BoolVar(&o.Prefetch, "prefetch", false, "synthesize input batches asynchronously: double-buffered prefetch with copy-stream H2D staging (bits unchanged)")
	flag.BoolVar(&o.Compute, "compute", true, "run real math (disable for timing-only runs)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed")
	flag.IntVar(&o.LogEvery, "log-every", 5, "print loss every N iterations")
	flag.StringVar(&o.Trace, "trace", "", "write a Chrome trace (chrome://tracing) of the final iteration to this file")
	flag.StringVar(&o.SaveWeights, "save-weights", "", "write the trained weights snapshot to this file (servable via glp4nn-serve -weights)")

	flag.IntVar(&o.Devices, "devices", 1, "data-parallel replica count (≥2 trains through the elastic trainer)")
	flag.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "write a rolling durable checkpoint ("+checkpointFile+") into this directory")
	flag.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "checkpoint every N iterations (0 = only at the end)")
	flag.BoolVar(&o.Resume, "resume", false, "resume from -checkpoint-dir's checkpoint (bitwise identical to the uninterrupted run)")
	flag.StringVar(&o.Bus, "bus", "pcie3", "inter-GPU interconnect model for the gradient all-reduce: pcie3 or nvlink1")
	flag.IntVar(&o.BucketKB, "bucket-kb", 0, "gradient bucket size in KiB for the overlapped all-reduce (0 = default 256; bits unchanged)")
	flag.BoolVar(&o.BlockingComm, "blocking-allreduce", false, "use the legacy blocking all-reduce instead of the bucketed overlapped one (bits unchanged)")
	flag.BoolVar(&o.Adapt, "adapt", false, "with -glp4nn: adaptive concurrency control — re-profile layers whose timing drifts and swap re-solved plans in at checkpointed step boundaries")

	var (
		faultSeed   = flag.Int64("fault-seed", 0, "fault schedule seed (0 = reuse -seed)")
		faultLaunch = flag.Float64("fault-launch", 0, "kernel-launch fault probability [0,1]")
		faultSync   = flag.Float64("fault-sync", 0, "synchronize fault probability [0,1]")
		faultMemcpy = flag.Float64("fault-memcpy", 0, "memcpy fault probability [0,1]")
		faultCreate = flag.Float64("fault-create", 0, "stream-creation fault probability [0,1]")
		faultHang   = flag.Float64("fault-hang", 0, "kernel hang probability [0,1] (trips the sync watchdog)")
		faultLoss   = flag.Float64("fault-devloss", 0, "permanent device-loss probability [0,1] per failable op (replicas 1+ in trainer mode)")
		faultLossAt = flag.Int64("fault-devloss-after", 0, "lose the device permanently after N failable ops (replicas 1+ in trainer mode)")
		faultPermAt = flag.Int64("fault-permanent-after", 0, "a fault site turns permanent after N faults (0 = always transient)")
		maxFaults   = flag.Int64("max-faults", 64, "total injected-fault budget (0 = unbounded)")
	)
	flag.Parse()

	o.Fault = simgpu.FaultPlan{
		Seed:            *faultSeed,
		Launch:          *faultLaunch,
		Sync:            *faultSync,
		Memcpy:          *faultMemcpy,
		CreateStream:    *faultCreate,
		Hang:            *faultHang,
		DeviceLoss:      *faultLoss,
		DeviceLossAfter: *faultLossAt,
		PermanentAfter:  *faultPermAt,
		MaxFaults:       *maxFaults,
	}
	if o.Fault.Seed == 0 {
		o.Fault.Seed = o.Seed
	}

	if _, err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// faultsArmed reports whether the plan injects anything.
func faultsArmed(fp simgpu.FaultPlan) bool {
	return fp.CreateStream > 0 || fp.Launch > 0 || fp.Memcpy > 0 || fp.Sync > 0 ||
		fp.Hang > 0 || fp.DeviceLoss > 0 || fp.DeviceLossAfter > 0
}

// run trains the workload and returns the final iteration's loss (0 for
// timing-only runs), so tests can assert the -dag, -fuse, -prefetch and
// checkpoint-resume paths change no bits.
func run(out io.Writer, o runOptions) (float64, error) {
	spec, ok := simgpu.DeviceByName(o.Device)
	if !ok {
		return 0, fmt.Errorf("unknown device %q (have %v)", o.Device, simgpu.CatalogNames())
	}
	w, err := models.Get(o.Net)
	if err != nil {
		return 0, err
	}
	if o.Batch <= 0 {
		o.Batch = w.DefaultBatch
	}
	if o.Iters < 1 {
		return 0, fmt.Errorf("-iters must be at least 1, got %d", o.Iters)
	}
	for _, p := range []struct {
		flag string
		v    float64
	}{
		{"fault-launch", o.Fault.Launch}, {"fault-sync", o.Fault.Sync}, {"fault-memcpy", o.Fault.Memcpy},
		{"fault-create", o.Fault.CreateStream}, {"fault-hang", o.Fault.Hang}, {"fault-devloss", o.Fault.DeviceLoss},
	} {
		if !(p.v >= 0 && p.v <= 1) { // also refuses NaN
			return 0, fmt.Errorf("-%s must be a probability in [0,1], got %v", p.flag, p.v)
		}
	}
	if o.Fault.MaxFaults < 0 || o.BucketKB < 0 {
		return 0, fmt.Errorf("-max-faults and -bucket-kb must not be negative (got %d and %d)", o.Fault.MaxFaults, o.BucketKB)
	}
	if o.Devices > 1 || o.CheckpointDir != "" || o.Resume || o.Adapt {
		return runTrainer(out, o, spec, w)
	}

	opts := []simgpu.Option{simgpu.WithTraceLimit(1)}
	var injector *simgpu.PlanInjector
	if faultsArmed(o.Fault) {
		injector = o.Fault.Injector()
		opts = append(opts, simgpu.WithInjector(injector))
		fmt.Fprintf(out, "fault injection armed (seed %d, budget %d); pair with -glp4nn for self-healing\n",
			o.Fault.Seed, o.Fault.MaxFaults)
	}
	dev, err := simgpu.NewDeviceChecked(spec, opts...)
	if err != nil {
		return 0, err
	}
	var launcher dnn.Launcher = dnn.SerialLauncher{Dev: dev}
	var fw *core.Framework
	if o.GLP {
		fw = core.New()
		defer fw.Close()
		launcher = fw.Runtime(dev)
	}

	ctx := dnn.NewContext(launcher, o.Seed)
	ctx.Compute = o.Compute
	fmt.Fprintf(out, "building %s (batch %d) for %s, glp4nn=%v dag=%v fuse=%v prefetch=%v compute=%v\n",
		o.Net, o.Batch, spec.Name, o.GLP, o.DAG, o.Fuse, o.Prefetch, o.Compute)
	net, err := w.Build(ctx, o.Batch, o.Seed)
	if err != nil {
		return 0, err
	}
	net.EnableDAG(o.DAG)
	if o.Fuse {
		fmt.Fprintf(out, "fused GEMM epilogues: %d sites\n", net.EnableFusion(true))
	}
	fmt.Fprint(out, net.Summary())

	// Same (batch, seed) → same batch stream, pipelined or not: that is
	// the prefetcher's numeric contract, asserted by the CLI tests.
	feed := w.NewFeeder(o.Batch, o.Seed+1)
	var pipe *models.InputPipe
	if o.Prefetch {
		cfg := models.PipeConfig{}
		if fw != nil {
			cfg.Observer = fw.Runtime(dev).Ledger()
		}
		pipe, err = models.NewInputPipe(o.Net, o.Batch, o.Seed+1, cfg)
		if err != nil {
			return 0, err
		}
		defer pipe.Close()
		feed = pipe.Feed
	}
	solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())

	wallStart := time.Now()
	var virtualTotal time.Duration
	var finalLoss float64
	for i := 0; i < o.Iters; i++ {
		if o.Compute {
			if err := feed(net); err != nil {
				return 0, err
			}
		}
		if err := dev.ResetClocks(); err != nil {
			return 0, err
		}
		// Model the input batch's host→device copy, like Caffe's data
		// layer — on the runtime's dedicated copy stream with -prefetch,
		// so the transfer overlaps compute instead of preceding it.
		if o.Prefetch {
			if err := net.StageInputs(ctx); err != nil {
				return 0, err
			}
		} else if err := net.UploadInputs(ctx); err != nil {
			return 0, err
		}
		loss, err := solver.Step()
		if err != nil {
			return 0, err
		}
		finalLoss = loss
		iterT, err := syncRetry(dev, injector != nil)
		if err != nil {
			return 0, err
		}
		virtualTotal += iterT
		if o.LogEvery > 0 && ((i+1)%o.LogEvery == 0 || i == 0) {
			if o.Compute {
				fmt.Fprintf(out, "iter %4d  loss %.4f  sim-time %v\n", i+1, loss, iterT.Round(time.Microsecond))
			} else {
				fmt.Fprintf(out, "iter %4d  sim-time %v\n", i+1, iterT.Round(time.Microsecond))
			}
		}
	}
	fmt.Fprintf(out, "done: %d iterations, mean simulated iteration %v, wall clock %v\n",
		o.Iters, (virtualTotal / time.Duration(o.Iters)).Round(time.Microsecond), time.Since(wallStart).Round(time.Millisecond))

	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return 0, err
		}
		if err := dev.ExportChromeTrace(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "chrome trace of the final iteration written to %s\n", o.Trace)
	}

	if o.SaveWeights != "" {
		if err := net.SaveWeightsFile(o.SaveWeights); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "trained weights written to %s\n", o.SaveWeights)
	}

	if pipe != nil {
		fmt.Fprintf(out, "input pipeline: %s\n", pipe.Stats())
	}
	if injector != nil {
		fmt.Fprintf(out, "injected faults: %s\n", injector.Stats())
	}
	if fw != nil {
		rt := fw.Runtime(dev)
		snap := rt.Ledger().Snapshot()
		fmt.Fprintf(out, "glp4nn overhead: %s\n", snap)
		if pipe != nil {
			fmt.Fprintf(out, "glp4nn input pipeline: %s\n", snap.InputPipe())
		}
		if snap.Recoveries() > 0 {
			fmt.Fprintf(out, "glp4nn recovery: %s\n", snap.Health())
		}
		if o.DAG {
			fmt.Fprintf(out, "operator DAG dispatches: %d of %d\n", snap.DAGDispatches, snap.Dispatches)
		}
		fmt.Fprintln(out, "concurrency plans:")
		for _, p := range rt.Plans() {
			fmt.Fprintf(out, "  %-22s %d streams\n", p.Key, p.Streams)
		}
	}
	return finalLoss, nil
}

// runTrainer is the data-parallel elastic path: N replicas train in
// lockstep through parallel.Trainer, with durable checkpoints, crash
// resume, and device-loss eviction. Fault injection (including permanent
// device loss) is armed on replicas 1+ only, so the lead replica always
// survives and the run can finish.
func runTrainer(out io.Writer, o runOptions, spec simgpu.DeviceSpec, w *models.Workload) (float64, error) {
	if o.Prefetch {
		return 0, fmt.Errorf("-prefetch is not supported with the data-parallel trainer")
	}
	if o.Trace != "" {
		return 0, fmt.Errorf("-trace is not supported with the data-parallel trainer")
	}
	if o.Devices < 1 {
		o.Devices = 1
	}
	if o.Resume && o.CheckpointDir == "" {
		return 0, fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if o.Adapt && !o.GLP {
		return 0, fmt.Errorf("-adapt needs -glp4nn (there are no plans to adapt without it)")
	}

	devs := make([]*simgpu.Device, o.Devices)
	injectors := make([]*simgpu.PlanInjector, o.Devices)
	for i := range devs {
		var opts []simgpu.Option
		if i > 0 && faultsArmed(o.Fault) {
			injectors[i] = o.Fault.Injector()
			opts = append(opts, simgpu.WithInjector(injectors[i]))
		}
		dev, err := simgpu.NewDeviceChecked(spec, opts...)
		if err != nil {
			return 0, err
		}
		devs[i] = dev
	}
	if faultsArmed(o.Fault) && o.Devices > 1 {
		fmt.Fprintf(out, "fault injection armed on replicas 1..%d (seed %d, budget %d)\n",
			o.Devices-1, o.Fault.Seed, o.Fault.MaxFaults)
	}

	busName := o.Bus
	if busName == "" {
		busName = "pcie3" // options built in code (tests) skip flag defaults
	}
	bus, ok := parallel.BusByName(busName)
	if !ok {
		return 0, fmt.Errorf("unknown bus %q (have %v)", o.Bus, parallel.BusNames())
	}
	tr, err := parallel.NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, o.Batch, o.Seed)
	}, parallel.Config{
		Solver:            dnn.CIFAR10QuickSolver(),
		Bus:               bus,
		UseGLP:            o.GLP,
		Compute:           o.Compute,
		Seed:              o.Seed,
		HostPool:          hostpool.New(4),
		StepRetries:       8,
		DAG:               o.DAG,
		Elastic:           true,
		BucketBytes:       int64(o.BucketKB) << 10,
		BlockingAllReduce: o.BlockingComm,
		Adaptive:          o.Adapt,
	})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	if o.Fuse {
		sites := 0
		for i := 0; i < tr.Replicas(); i++ {
			sites = tr.Net(i).EnableFusion(true)
		}
		fmt.Fprintf(out, "fused GEMM epilogues: %d sites per replica\n", sites)
	}
	fmt.Fprintf(out, "training %s (batch %d ×%d replicas) on %s over %s, glp4nn=%v dag=%v fuse=%v compute=%v elastic\n",
		o.Net, o.Batch, o.Devices, spec.Name, bus.Name, o.GLP, o.DAG, o.Fuse, o.Compute)

	// Per-shard feeders: shard s always draws from stream seed+1+17s, no
	// matter which replica currently owns it — batch composition is a
	// property of the plan, not of the live device count.
	feeders := make([]func(*dnn.Net) error, o.Devices)
	for s := range feeders {
		feeders[s] = w.NewFeeder(o.Batch, o.Seed+1+int64(s)*17)
	}
	feed := func(s int, net *dnn.Net) error { return feeders[s](net) }

	ckptPath := ""
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return 0, err
		}
		ckptPath = filepath.Join(o.CheckpointDir, checkpointFile)
	}
	if o.Resume {
		// Validate before touching any trainer state: a corrupt checkpoint
		// must refuse the resume, not half-restore it.
		if _, err := parallel.PeekCheckpointFile(ckptPath); err != nil {
			return 0, fmt.Errorf("refusing to resume: %w", err)
		}
		info, err := tr.RestoreCheckpointFile(ckptPath)
		if err != nil {
			return 0, fmt.Errorf("refusing to resume: %w", err)
		}
		// Feeders are deterministic: replaying them to the stored position
		// restores the input iterator, so the next batch is exactly the one
		// the interrupted run would have drawn.
		for k := int64(0); k < info.FeedSteps; k++ {
			for s := range feeders {
				if err := feed(s, tr.Net(s)); err != nil {
					return 0, err
				}
			}
		}
		fmt.Fprintf(out, "resumed from %s at iteration %d (replayed %d feed steps)\n",
			ckptPath, info.Iter, info.FeedSteps)
	}

	wallStart := time.Now()
	var finalLoss float64
	seenEvictions := 0
	for i := tr.Iter(); i < o.Iters; i++ {
		res, err := tr.Step(feed)
		for _, ev := range tr.EvictionEvents()[seenEvictions:] {
			fmt.Fprintf(out, "device lost: %s\n", ev)
			seenEvictions++
		}
		if err != nil {
			return 0, err
		}
		finalLoss = res.MeanLoss
		if o.LogEvery > 0 && ((i+1)%o.LogEvery == 0 || i == 0) {
			if o.Compute {
				fmt.Fprintf(out, "iter %4d  loss %.4f  sim-time %v\n", i+1, res.MeanLoss, res.IterTime.Round(time.Microsecond))
			} else {
				fmt.Fprintf(out, "iter %4d  sim-time %v\n", i+1, res.IterTime.Round(time.Microsecond))
			}
		}
		if ckptPath != "" && o.CheckpointEvery > 0 && (i+1)%o.CheckpointEvery == 0 {
			if err := tr.WriteCheckpointFile(ckptPath); err != nil {
				return 0, err
			}
		}
	}
	if ckptPath != "" {
		if err := tr.WriteCheckpointFile(ckptPath); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "durable checkpoint written to %s (iteration %d)\n", ckptPath, tr.Iter())
	}
	fmt.Fprintf(out, "done: %d iterations on %d replicas (%d surviving), wall clock %v\n",
		tr.Iter(), o.Devices, tr.Survivors(), time.Since(wallStart).Round(time.Millisecond))

	if o.SaveWeights != "" {
		if err := tr.ActiveNet().SaveWeightsFile(o.SaveWeights); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "trained weights written to %s\n", o.SaveWeights)
	}

	for i, inj := range injectors {
		if inj != nil {
			fmt.Fprintf(out, "replica %d injected faults: %s\n", i, inj.Stats())
		}
	}
	if tr.Evictions() > 0 || tr.Resumes() > 0 || tr.Rollbacks() > 0 {
		fmt.Fprintf(out, "elastic: evictions=%d shard-moves=%d resumes=%d rollbacks=%d shard-owners=%v\n",
			tr.Evictions(), tr.ShardMoves(), tr.Resumes(), tr.Rollbacks(), tr.ShardOwners())
	}
	// End-of-run overlap report: how much of the modeled ring time hid
	// under backward, against the bill the blocking monolith would charge
	// for the same healthy step count.
	if cs := tr.CommStats(); cs.Steps > 0 {
		mode := "overlapped"
		if cs.Blocking {
			mode = "blocking"
		}
		blockingBill := bus.AllReduceTime(o.Devices, tr.GradientBytes()) * time.Duration(cs.Steps)
		fmt.Fprintf(out, "all-reduce (%s, %s, %d KiB buckets): buckets/step=%.1f overlapped=%v exposed=%v; blocking bill %v\n",
			bus.Name, mode, cs.BucketBytes>>10, cs.BucketsPerStep,
			cs.Overlapped.Round(time.Microsecond), cs.Exposed.Round(time.Microsecond),
			blockingBill.Round(time.Microsecond))
	}
	if fw := tr.Framework(); fw != nil {
		lead := tr.ShardOwners()[0]
		snap := fw.Runtime(tr.Devices()[lead]).Ledger().Snapshot()
		fmt.Fprintf(out, "glp4nn overhead: %s\n", snap)
		if o.Adapt {
			fmt.Fprintf(out, "glp4nn adaptive: %s\n", snap.Adaptive())
			for _, ev := range tr.SwapEvents() {
				kind := "swap"
				if ev.Shadow {
					kind = "shadow"
				}
				fmt.Fprintf(out, "  iter %4d  %-6s %-22s width %d (solved from %v)\n",
					ev.Iter, kind, ev.Key, ev.Streams, ev.SolvedFrom.Round(time.Microsecond))
			}
		}
	}
	return finalLoss, nil
}

// syncRetry synchronizes the device; with fault injection armed, transient
// faults on the training loop's own barrier are retried (the launcher-level
// barriers self-heal inside the runtime, but this call sits above it — the
// same integration-layer duty the data-parallel trainer discharges with
// checkpoint rollback).
func syncRetry(dev *simgpu.Device, faulty bool) (time.Duration, error) {
	d, err := dev.SyncTime()
	if !faulty {
		return d, err
	}
	for attempt := 0; err != nil && core.IsTransient(err) && attempt < 8; attempt++ {
		d, err = dev.SyncTime()
	}
	return d, err
}
