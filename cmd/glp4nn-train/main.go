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
	"bytes"
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
	Net, Device        string
	Batch, Iters       int
	Seed               int64
	LogEvery           int
	Trace, SaveWeights string
	Fault              simgpu.FaultPlan
	GLP, DAG, Fuse     bool
	Prefetch, Compute  bool

	// Data-parallel elastic training: Devices ≥ 2, a checkpoint directory
	// or Adapt selects the trainer engine.
	Devices, CheckpointEvery int
	CheckpointDir, Bus       string
	Resume, Adapt            bool
	BucketKB                 int
	BlockingComm             bool
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
	flag.BoolVar(&o.Prefetch, "prefetch", false, "synthesize input batches asynchronously: double-buffered prefetch, with copy-stream H2D staging on the single-device engine (bits unchanged)")
	flag.BoolVar(&o.Compute, "compute", true, "run real math (disable for timing-only runs)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed")
	flag.IntVar(&o.LogEvery, "log-every", 5, "print loss every N iterations")
	flag.StringVar(&o.Trace, "trace", "", "write a Chrome trace (chrome://tracing) of the lead device's final iteration to this file; each trainer phase resets the device clocks, so on the trainer engine that is the final update phase")
	flag.StringVar(&o.SaveWeights, "save-weights", "", "write the trained weights snapshot to this file (servable via glp4nn-serve -weights)")

	flag.IntVar(&o.Devices, "devices", 1, "data-parallel replica count (≥2 selects the elastic trainer engine)")
	flag.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "write a rolling durable checkpoint ("+checkpointFile+") into this directory (selects the trainer engine)")
	flag.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "checkpoint every N iterations (0 = only at the end)")
	flag.BoolVar(&o.Resume, "resume", false, "resume from -checkpoint-dir's checkpoint (bitwise identical to the uninterrupted run)")
	flag.StringVar(&o.Bus, "bus", "pcie3", "inter-GPU interconnect model for the gradient all-reduce: pcie3 or nvlink1")
	flag.IntVar(&o.BucketKB, "bucket-kb", 0, "gradient bucket size in KiB for the overlapped all-reduce (0 = default 256; bits unchanged)")
	flag.BoolVar(&o.BlockingComm, "blocking-allreduce", false, "use the legacy blocking all-reduce instead of the bucketed overlapped one (bits unchanged)")
	flag.BoolVar(&o.Adapt, "adapt", false, "with -glp4nn: adaptive concurrency control — re-profile layers whose plan a fault pinned (serial demotion or lost profile) and swap re-solved plans in at checkpointed step boundaries (selects the trainer engine)")

	f := &o.Fault
	flag.Int64Var(&f.Seed, "fault-seed", 0, "fault schedule seed (0 = reuse -seed)")
	flag.Float64Var(&f.Launch, "fault-launch", 0, "kernel-launch fault probability [0,1]")
	flag.Float64Var(&f.Sync, "fault-sync", 0, "synchronize fault probability [0,1]")
	flag.Float64Var(&f.Memcpy, "fault-memcpy", 0, "memcpy fault probability [0,1]")
	flag.Float64Var(&f.CreateStream, "fault-create", 0, "stream-creation fault probability [0,1]")
	flag.Float64Var(&f.Hang, "fault-hang", 0, "kernel hang probability [0,1] (trips the sync watchdog)")
	flag.Float64Var(&f.DeviceLoss, "fault-devloss", 0, "permanent device-loss probability [0,1] per failable op")
	flag.Int64Var(&f.DeviceLossAfter, "fault-devloss-after", 0, "lose the device permanently after N failable ops")
	flag.Int64Var(&f.PermanentAfter, "fault-permanent-after", 0, "a fault site turns permanent after N faults (0 = always transient)")
	flag.Int64Var(&f.MaxFaults, "max-faults", 64, "total injected-fault budget (0 = unbounded)")
	flag.Parse()
	if f.Seed == 0 {
		f.Seed = o.Seed
	}

	if _, err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// session is one step engine under run: the single-device solver loop
// (solo) or the data-parallel *parallel.Trainer, which has these methods
// already. run picks one where it validates the flags and drives the
// iteration log, checkpoints, trace and reports through them.
type session interface {
	Step(feed parallel.FeedFunc) (parallel.StepResult, error)
	ActiveNet() *dnn.Net        // holds the trained weights
	Framework() *core.Framework // nil without -glp4nn
	Close()
}

// solo is the solver loop on one device. Its step models the input batch's
// host→device copy, like Caffe's data layer — on the runtime's dedicated
// copy stream with -prefetch, so the transfer overlaps compute instead of
// preceding it. The trainer's step models no H2D (DESIGN §7.2).
type solo struct {
	dev    *simgpu.Device
	fw     *core.Framework
	ctx    *dnn.Context
	net    *dnn.Net
	solver *dnn.Solver
	staged bool // -prefetch
}

func newSolo(o runOptions, dev *simgpu.Device, build parallel.BuildFunc) (*solo, error) {
	s := &solo{dev: dev, staged: o.Prefetch}
	var launcher dnn.Launcher = dnn.SerialLauncher{Dev: dev}
	if o.GLP {
		s.fw = core.New()
		launcher = s.fw.Runtime(dev)
	}
	s.ctx = dnn.NewContext(launcher, o.Seed)
	s.ctx.Compute = o.Compute
	var err error
	if s.net, err = build(s.ctx); err != nil {
		s.Close()
		return nil, err
	}
	s.solver = dnn.NewSolver(s.net, s.ctx, dnn.CIFAR10QuickSolver())
	return s, nil
}

func (s *solo) Step(feed parallel.FeedFunc) (res parallel.StepResult, err error) {
	if err = feed(0, s.net); err != nil {
		return res, err
	}
	if err = s.dev.ResetClocks(); err != nil {
		return res, err
	}
	stage := s.net.UploadInputs
	if s.staged {
		stage = s.net.StageInputs
	}
	if err = stage(s.ctx); err != nil {
		return res, err
	}
	if res.MeanLoss, err = s.solver.Step(); err != nil {
		return res, err
	}
	// Transient (injected) faults on the loop's own barrier are retried: the
	// launcher-level barriers self-heal inside the runtime, this call sits
	// above it — the duty the trainer discharges with checkpoint rollback.
	res.IterTime, err = s.dev.SyncTime()
	for attempt := 0; err != nil && core.IsTransient(err) && attempt < 8; attempt++ {
		res.IterTime, err = s.dev.SyncTime()
	}
	return res, err
}

func (s *solo) ActiveNet() *dnn.Net { return s.net }

func (s *solo) Framework() *core.Framework { return s.fw }

func (s *solo) Close() {
	if s.fw != nil {
		s.fw.Close()
	}
}

// run trains the workload and returns the final iteration's loss (0 for
// timing-only runs), so tests can assert the -dag, -fuse, -prefetch and
// checkpoint-resume paths change no bits.
func run(out io.Writer, o runOptions) (float64, error) {
	// Every refusal lives here, before anything is built or printed.
	spec, ok := simgpu.DeviceByName(o.Device)
	if !ok {
		return 0, fmt.Errorf("unknown device %q (have %v)", o.Device, simgpu.CatalogNames())
	}
	w, err := models.Get(o.Net)
	if err != nil {
		return 0, err
	}
	if o.Batch == 0 {
		o.Batch = w.DefaultBatch
	}
	if o.Iters < 1 || o.Devices < 1 {
		return 0, fmt.Errorf("-iters and -devices must be at least 1, got %d and %d", o.Iters, o.Devices)
	}
	fp := o.Fault
	probs := []float64{fp.Launch, fp.Sync, fp.Memcpy, fp.CreateStream, fp.Hang, fp.DeviceLoss}
	for i, name := range []string{"launch", "sync", "memcpy", "create", "hang", "devloss"} {
		if v := probs[i]; !(v >= 0 && v <= 1) { // also refuses NaN
			return 0, fmt.Errorf("-fault-%s must be a probability in [0,1], got %v", name, v)
		}
	}
	counts := []int64{int64(o.Batch), fp.MaxFaults, int64(o.BucketKB), int64(o.CheckpointEvery), fp.PermanentAfter, fp.DeviceLossAfter}
	for i, name := range []string{"batch", "max-faults", "bucket-kb", "checkpoint-every", "fault-permanent-after", "fault-devloss-after"} {
		if counts[i] < 0 {
			return 0, fmt.Errorf("-%s must not be negative, got %d", name, counts[i])
		}
	}
	ckptPath := filepath.Join(o.CheckpointDir, checkpointFile) // meaningful with -checkpoint-dir only
	if o.Resume && o.CheckpointDir == "" {
		return 0, fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if o.Resume {
		// A corrupt checkpoint refuses the resume before anything is built.
		if _, err := parallel.PeekCheckpointFile(ckptPath); err != nil {
			return 0, fmt.Errorf("refusing to resume: %w", err)
		}
	}
	if o.Adapt && !o.GLP {
		return 0, fmt.Errorf("-adapt needs -glp4nn (there are no plans to adapt without it)")
	}
	if o.Bus == "" {
		o.Bus = "pcie3" // options built in code (tests) skip flag defaults
	}
	bus, ok := parallel.BusByName(o.Bus)
	if !ok {
		return 0, fmt.Errorf("unknown bus %q (have %v)", o.Bus, parallel.BusNames())
	}

	// Devices retain no kernel records until -trace's final iteration.
	// Faults arm every device but a multi-device run's lead, so the lead
	// replica always survives and the run can finish.
	armed := fp.CreateStream > 0 || fp.Launch > 0 || fp.Memcpy > 0 || fp.Sync > 0 ||
		fp.Hang > 0 || fp.DeviceLoss > 0 || fp.DeviceLossAfter > 0
	firstFaulty := min(1, o.Devices-1)
	devs := make([]*simgpu.Device, o.Devices)
	injectors := make([]*simgpu.PlanInjector, o.Devices)
	for i := range devs {
		var opts []simgpu.Option
		if armed && i >= firstFaulty {
			injectors[i] = fp.Injector()
			opts = append(opts, simgpu.WithInjector(injectors[i]))
		}
		if devs[i], err = simgpu.NewDeviceChecked(spec, opts...); err != nil {
			return 0, err
		}
		devs[i].SetTracing(false)
	}
	if armed {
		fmt.Fprintf(out, "fault injection armed on devices %d..%d (seed %d, budget %d); pair with -glp4nn for self-healing\n",
			firstFaulty, o.Devices-1, fp.Seed, fp.MaxFaults)
	}

	// Shard s always draws from stream seed+1+17s, no matter which replica
	// currently owns it — batch composition is a property of the plan, not
	// of the live device count — and the same (batch, seed) gives the same
	// stream inline or through -prefetch's asynchronous pipe: the
	// prefetcher's numeric contract, asserted by the CLI tests.
	feeders := make([]models.Feeder, o.Devices)
	var pipes []*models.InputPipe
	for sh := range feeders {
		seed := o.Seed + 1 + int64(sh)*17
		if !o.Prefetch {
			feeders[sh] = w.NewFeeder(o.Batch, seed)
			continue
		}
		p, err := models.NewInputPipe(o.Net, o.Batch, seed, models.PipeConfig{})
		if err != nil {
			return 0, err
		}
		defer p.Close()
		pipes = append(pipes, p)
		feeders[sh] = p.Feed
	}
	feed := func(sh int, net *dnn.Net) error {
		if !o.Compute {
			return nil // timing-only: no input to synthesize
		}
		return feeders[sh](net)
	}
	sites := 0
	build := func(ctx *dnn.Context) (*dnn.Net, error) {
		net, err := w.Build(ctx, o.Batch, o.Seed)
		if err == nil {
			net.EnableDAG(o.DAG)
			if o.Fuse {
				sites = net.EnableFusion(true)
			}
		}
		return net, err
	}

	fmt.Fprintf(out, "training %s (batch %d ×%d devices) on %s, glp4nn=%v dag=%v fuse=%v prefetch=%v compute=%v\n",
		o.Net, o.Batch, o.Devices, spec.Name, o.GLP, o.DAG, o.Fuse, o.Prefetch, o.Compute)
	// The one engine choice. tr stays nil on the solver loop: every flag
	// that needs more of the trainer than a session (checkpoints, -adapt)
	// selects it.
	var s session
	var tr *parallel.Trainer
	if o.Devices > 1 || o.CheckpointDir != "" || o.Adapt {
		cfg := parallel.Config{
			Solver: dnn.CIFAR10QuickSolver(), Bus: bus, UseGLP: o.GLP, Compute: o.Compute, Seed: o.Seed,
			HostPool: hostpool.New(4), StepRetries: 8, Elastic: true, Adaptive: o.Adapt,
			BucketBytes: int64(o.BucketKB) << 10, BlockingAllReduce: o.BlockingComm,
		}
		for _, p := range pipes {
			cfg.Prefetch = append(cfg.Prefetch, p)
		}
		if tr, err = parallel.NewTrainer(simgpu.NewMachineFromDevices(devs...), build, cfg); err != nil {
			return 0, err
		}
		s = tr
	} else if s, err = newSolo(o, devs[0], build); err != nil {
		return 0, err
	}
	defer s.Close()
	if o.Fuse {
		fmt.Fprintf(out, "fused GEMM epilogues: %d sites\n", sites)
	}
	fmt.Fprint(out, s.ActiveNet().Summary())

	start := 0
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return 0, err
		}
	}
	if o.Resume {
		info, err := tr.RestoreCheckpointFile(ckptPath)
		if err != nil {
			return 0, fmt.Errorf("refusing to resume: %w", err)
		}
		// Feeders are deterministic: replaying them to the stored position
		// restores the input iterator, so the next batch is exactly the one
		// the interrupted run would have drawn.
		for k := int64(0); k < info.FeedSteps; k++ {
			for sh := range feeders {
				if err := feed(sh, tr.Net(sh)); err != nil {
					return 0, err
				}
			}
		}
		start = info.Iter
		fmt.Fprintf(out, "resumed from %s at iteration %d (replayed %d feed steps)\n", ckptPath, info.Iter, info.FeedSteps)
	}

	wallStart := time.Now()
	var virtualTotal time.Duration
	var finalLoss float64
	evictions := 0
	for i := start; i < o.Iters; i++ {
		last := i+1 == o.Iters
		if last && o.Trace != "" {
			devs[0].SetTracing(true)
		}
		res, err := s.Step(feed)
		for ; tr != nil && evictions < tr.Evictions(); evictions++ {
			fmt.Fprintf(out, "device lost: %s\n", tr.EvictionEvents()[evictions])
		}
		if err != nil {
			return 0, err
		}
		finalLoss = res.MeanLoss
		virtualTotal += res.IterTime
		if o.LogEvery > 0 && ((i+1)%o.LogEvery == 0 || i == 0) {
			if o.Compute {
				fmt.Fprintf(out, "iter %4d  loss %.4f  sim-time %v\n", i+1, res.MeanLoss, res.IterTime.Round(time.Microsecond))
			} else {
				fmt.Fprintf(out, "iter %4d  sim-time %v\n", i+1, res.IterTime.Round(time.Microsecond))
			}
		}
		if o.CheckpointDir != "" && (last || o.CheckpointEvery > 0 && (i+1)%o.CheckpointEvery == 0) {
			if err := tr.WriteCheckpointFile(ckptPath); err != nil {
				return 0, err
			}
		}
	}
	fmt.Fprintf(out, "done: %d iterations, mean simulated iteration %v, wall clock %v\n", o.Iters,
		(virtualTotal / time.Duration(max(o.Iters-start, 1))).Round(time.Microsecond), time.Since(wallStart).Round(time.Millisecond))
	if o.CheckpointDir != "" && start < o.Iters {
		fmt.Fprintf(out, "durable checkpoint written to %s (iteration %d)\n", ckptPath, tr.Iter())
	}

	if o.Trace != "" {
		var buf bytes.Buffer
		if err := devs[0].ExportChromeTrace(&buf); err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.Trace, buf.Bytes(), 0o644); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "chrome trace of the final iteration written to %s\n", o.Trace)
	}
	if o.SaveWeights != "" {
		if err := s.ActiveNet().SaveWeightsFile(o.SaveWeights); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "trained weights written to %s\n", o.SaveWeights)
	}

	for sh, p := range pipes {
		fmt.Fprintf(out, "input pipeline: shard %d %s\n", sh, p.Stats())
	}
	for i, inj := range injectors {
		if inj != nil {
			fmt.Fprintf(out, "device %d injected faults: %s\n", i, inj.Stats())
		}
	}
	if tr != nil {
		if tr.Evictions() > 0 || tr.Resumes() > 0 || tr.Rollbacks() > 0 {
			fmt.Fprintf(out, "elastic: evictions=%d shard-moves=%d resumes=%d rollbacks=%d shard-owners=%v\n",
				tr.Evictions(), tr.ShardMoves(), tr.Resumes(), tr.Rollbacks(), tr.ShardOwners())
		}
		// End-of-run overlap report: how much of the modeled ring time hid
		// under backward, against the bill the blocking monolith would
		// charge for the same healthy step count.
		if cs := tr.CommStats(); cs.Steps > 0 {
			mode := "overlapped"
			if cs.Blocking {
				mode = "blocking"
			}
			blockingBill := bus.AllReduceTime(o.Devices, tr.GradientBytes()) * time.Duration(cs.Steps)
			fmt.Fprintf(out, "all-reduce (%s, %s, %d KiB buckets): buckets/step=%.1f overlapped=%v exposed=%v; blocking bill %v\n",
				bus.Name, mode, cs.BucketBytes>>10, cs.BucketsPerStep,
				cs.Overlapped.Round(time.Microsecond), cs.Exposed.Round(time.Microsecond), blockingBill.Round(time.Microsecond))
		}
	}
	if s.Framework() == nil {
		return finalLoss, nil
	}
	// A multi-device run's lead is never armed, so shard 0 stays on devs[0].
	rt := s.Framework().Runtime(devs[0])
	snap := rt.Ledger().Snapshot()
	fmt.Fprintf(out, "glp4nn overhead: %s\n", snap)
	if snap.CopyOverlapNs > 0 {
		fmt.Fprintf(out, "glp4nn input pipeline: copy-overlap=%v\n", time.Duration(snap.CopyOverlapNs).Round(time.Microsecond))
	}
	if snap.Recoveries() > 0 {
		fmt.Fprintf(out, "glp4nn recovery: %s\n", snap.Health())
	}
	if o.DAG {
		fmt.Fprintf(out, "operator DAG dispatches: %d of %d\n", snap.DAGDispatches, snap.Dispatches)
	}
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
	fmt.Fprintln(out, "concurrency plans:")
	for _, p := range rt.Plans() {
		fmt.Fprintf(out, "  %-22s %d streams\n", p.Key, p.Streams)
	}
	return finalLoss, nil
}
