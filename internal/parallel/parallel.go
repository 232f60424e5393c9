// Package parallel implements the paper's future-work item 3 — "a
// distributed implementation of the proposed framework" — at machine scale:
// synchronous data-parallel training across the GPUs of one simulated
// machine. Each device holds a full replica of the network (initialized
// identically), processes its shard of the global batch, and gradients are
// combined with a ring all-reduce whose communication time is modeled from
// the interconnect's bandwidth and latency. GLP4NN runs *inside* each
// replica, exactly as the paper suggests ("applied to a multi-GPU platform
// ... by optimizing workloads on a single GPU").
//
// Numerics are real: gradients are averaged across replicas in fixed
// device order and every replica applies the identical update, so replicas
// stay bitwise in sync (asserted by tests).
package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/simgpu"
)

// Bus models the inter-GPU interconnect for the all-reduce cost model.
type Bus struct {
	Name          string
	BandwidthGBps float64 // per-link bandwidth
	Latency       time.Duration
}

// Common interconnects.
var (
	// PCIe3 is a 16-lane PCIe 3.0 link (the paper's machines).
	PCIe3 = Bus{Name: "PCIe3 x16", BandwidthGBps: 12, Latency: 5 * time.Microsecond}
	// NVLink1 is first-generation NVLink (P100-class machines).
	NVLink1 = Bus{Name: "NVLink 1.0", BandwidthGBps: 40, Latency: 2 * time.Microsecond}
)

// AllReduceTime returns the ring all-reduce time for n participants moving
// `bytes` of gradients each: 2·(n−1)/n · bytes / bandwidth + 2·(n−1)·latency.
func (b Bus) AllReduceTime(n int, bytes int64) time.Duration {
	if n <= 1 {
		return 0
	}
	transfer := 2 * float64(n-1) / float64(n) * float64(bytes) / (b.BandwidthGBps * 1e9)
	return time.Duration(transfer*1e9) + time.Duration(2*(n-1))*b.Latency
}

// BuildFunc constructs one network replica in the given context.
type BuildFunc func(ctx *dnn.Context) (*dnn.Net, error)

// FeedFunc fills one replica's inputs with its shard for a step.
type FeedFunc func(replica int, net *dnn.Net) error

// replica is one device's training state.
type replica struct {
	dev    *simgpu.Device
	ctx    *dnn.Context
	net    *dnn.Net
	solver *dnn.Solver
	// params caches net.Params() (which allocates per call) in canonical
	// order; the bucket fold indexes it from worker goroutines.
	params []*dnn.Blob
	// lost marks a replica evicted after permanent device loss; it is
	// never scheduled again and its shards belong to survivors.
	lost bool
}

// Trainer trains synchronously across all devices of a machine.
type Trainer struct {
	bus      Bus
	replicas []*replica
	fw       *core.Framework
	iter     int

	gradBytes   int64
	stepRetries int
	rollbacks   int
	prefetch    []InputPipeline

	// Overlapped all-reduce state (see allreduce.go). plan is the immutable
	// bucket partition; retire holds each device's completion listener log;
	// lst the Subscribe tokens (released by Close); red the in-flight
	// step's reducer, non-nil only between Phase-1 launch and join.
	plan     *BucketPlan
	pool     *hostpool.Pool
	blocking bool
	retire   []*retireLog
	lst      []int
	red      *reduceRun

	commSteps      int64
	commBuckets    int64
	commOverlapped time.Duration
	commExposed    time.Duration

	// Elastic state (see elastic.go). owners maps each of the original N
	// batch shards to the replica currently processing it — identity until
	// a device is lost — and shardsOf is its inverse, each replica's shards
	// ascending. stash holds each shard's fed inputs (by sorted input name)
	// once the trainer is degraded; gradStash holds the gradients of shards
	// whose owner runs more than one (the fold's shard-source rule).
	elastic    bool
	owners     []int
	shardsOf   [][]int
	inputNames []string
	stash      [][][]float32
	gradStash  [][][]float32
	evictions  int
	shardMoves int
	resumes    int
	events     []EvictionEvent

	// Adaptive-controller state (see adaptive.go). pinned holds keys
	// flagged by pinnedTick awaiting eviction at the next boundary;
	// shadowKeys the keys currently in their shadow re-profile window;
	// swapArmed marks that the next boundary must finalize and swap.
	adaptive   bool
	pinned     []string
	shadowKeys []string
	swapArmed  bool
	swapLog    []PlanSwapEvent
}

// Config tunes a Trainer.
type Config struct {
	Solver  dnn.SolverConfig
	Bus     Bus
	UseGLP  bool // run each replica through GLP4NN
	Compute bool // real math (true) or timing-only
	Seed    int64
	// HostPool, when non-nil, additionally runs each replica's kernel host
	// math chain-parallel on the shared worker pool (see internal/hostpool).
	// Replicas already run concurrently with each other during Phase 1; the
	// pool parallelizes *within* a replica too, bounded by the pool size.
	HostPool *hostpool.Pool
	// StepRetries, when positive, arms rollback-and-retry: each Step is
	// checkpointed first, and a step that fails with a transient device
	// error is rolled back to the checkpoint and re-run, up to this many
	// times. Zero keeps the legacy fail-fast behavior.
	StepRetries int
	// DAG, when true, enables each replica's operator DAG scheduler:
	// independent layers of one replica execute concurrently
	// (dnn.Net.EnableDAG), on top of the replica-level and chain-level
	// parallelism above. Trained parameters stay bitwise identical.
	DAG bool
	// Prefetch registers the asynchronous input pipelines feeding this
	// trainer (e.g. one models.InputPipe per replica). The trainer does not
	// drive them — the FeedFunc does — but Restore notifies each so
	// batches synthesized ahead of a rolled-back step are discarded and
	// re-synthesized from the restored serial order, keeping retries
	// bit-identical (see the feed-once contract on Step).
	Prefetch []InputPipeline
	// Elastic, when true, arms device-loss tolerance: a replica whose
	// device fails permanently (core.IsDeviceLost) is evicted, its batch
	// shard is deterministically reassigned to survivors, and the step is
	// re-run from its checkpoint — bitwise identical to the healthy run
	// (see elastic.go). When false, permanent faults propagate.
	Elastic bool
	// BucketBytes caps each gradient bucket of the overlapped all-reduce
	// (see allreduce.go); zero selects DefaultBucketBytes. The bucket plan
	// is part of the numeric contract only through per-element fold order,
	// which is invariant across bucket sizes — any BucketBytes trains the
	// same bits.
	BucketBytes int64
	// BlockingAllReduce waits for every replica's full backward, then runs
	// the bucket fold over every bucket and charges the whole ring time as
	// exposed comm. Trains bitwise identically to the default overlapped
	// path; kept as the reference arm for tests and benchmarks.
	BlockingAllReduce bool
	// Adaptive, with UseGLP, arms the online concurrency controller: layers
	// whose plan a fault pinned (serial-demoted, or solved from a lost
	// profile) are re-profiled in a shadow window, and the re-solved plans
	// swap in at checkpointed step boundaries (see adaptive.go). The width
	// schedule is recorded (SwapEvents) so a non-adaptive replay trains
	// identical bits.
	Adaptive bool
}

// InputPipeline is the rollback hook of an asynchronous input feed.
type InputPipeline interface {
	Rollback()
}

// NewTrainer builds one replica per machine device. The build function must
// be deterministic (same seed → same initial parameters) so replicas start
// identical.
func NewTrainer(machine *simgpu.Machine, build BuildFunc, cfg Config) (*Trainer, error) {
	devs := machine.Devices()
	if len(devs) == 0 {
		return nil, fmt.Errorf("parallel: machine has no devices")
	}
	if cfg.Bus.BandwidthGBps == 0 {
		cfg.Bus = PCIe3
	}
	t := &Trainer{bus: cfg.Bus, stepRetries: cfg.StepRetries, prefetch: cfg.Prefetch, elastic: cfg.Elastic}
	t.owners = make([]int, len(devs))
	for i := range t.owners {
		t.owners[i] = i
	}
	t.indexShards()
	if cfg.UseGLP {
		t.fw = core.New()
		t.adaptive = cfg.Adaptive
	}
	for _, dev := range devs {
		var l dnn.Launcher = dnn.SerialLauncher{Dev: dev}
		if t.fw != nil {
			rt := t.fw.Runtime(dev)
			if t.adaptive {
				rt.SetAdaptive()
			}
			l = rt
		}
		ctx := dnn.NewContext(l, cfg.Seed)
		ctx.Compute = cfg.Compute
		ctx.Pool = cfg.HostPool
		net, err := build(ctx)
		if err != nil {
			return nil, fmt.Errorf("parallel: building replica on %s: %w", dev.Name(), err)
		}
		if cfg.DAG {
			net.EnableDAG(true)
		}
		t.replicas = append(t.replicas, &replica{
			dev:    dev,
			ctx:    ctx,
			net:    net,
			solver: dnn.NewSolver(net, ctx, cfg.Solver),
			params: net.Params(),
		})
	}
	for _, p := range t.replicas[0].params {
		t.gradBytes += int64(p.Count()) * 4
	}
	// Overlapped all-reduce wiring: one bucket plan (a pure function of the
	// topology and bucket size — crash-resume rebuilds the identical plan),
	// one gradient-ready hook and one completion listener per replica.
	t.pool = cfg.HostPool
	t.blocking = cfg.BlockingAllReduce
	t.plan = NewBucketPlan(t.replicas[0].net, cfg.BucketBytes)
	if err := checkPlanCoverage(t.plan, t.replicas[0].params); err != nil {
		return nil, err
	}
	t.retire = make([]*retireLog, len(t.replicas))
	t.lst = make([]int, len(t.replicas))
	for i, r := range t.replicas {
		i, r := i, r
		t.retire[i] = &retireLog{}
		t.lst[i] = r.dev.Subscribe(func(rec simgpu.KernelRecord) {
			t.retire[i].add(rec.Seq, rec.End)
		})
		r.net.OnLayerBackward(func(li int) { t.layerRetired(i, li) })
	}
	return t, nil
}

// Close releases framework resources and detaches the per-device
// completion listeners.
func (t *Trainer) Close() {
	for i, r := range t.replicas {
		r.dev.Unsubscribe(t.lst[i])
	}
	if t.fw != nil {
		t.fw.Close()
	}
}

// Replicas returns the replica count.
func (t *Trainer) Replicas() int { return len(t.replicas) }

// Net returns replica i's network (replicas stay parameter-identical).
func (t *Trainer) Net(i int) *dnn.Net { return t.replicas[i].net }

// GradientBytes returns the per-replica gradient volume all-reduced each
// step.
func (t *Trainer) GradientBytes() int64 { return t.gradBytes }

// Devices returns every replica's device in replica order, including those
// of evicted replicas.
func (t *Trainer) Devices() []*simgpu.Device {
	devs := make([]*simgpu.Device, len(t.replicas))
	for i, r := range t.replicas {
		devs[i] = r.dev
	}
	return devs
}

// StepResult reports one synchronous step.
type StepResult struct {
	MeanLoss    float64
	ComputeTime time.Duration // max over replicas (they run in parallel)
	// CommTime is the *exposed* ring all-reduce time — the part left on the
	// critical path after per-bucket transfers overlapped residual backward
	// compute. Under Config.BlockingAllReduce (and in degraded post-eviction
	// steps) it is the full modeled ring time over the survivors.
	CommTime       time.Duration
	OverlappedComm time.Duration // modeled ring time hidden under backward
	BucketsReduced int           // gradient buckets folded this step
	IterTime       time.Duration // ComputeTime + CommTime + update
}

// Step runs one synchronous data-parallel iteration: each replica computes
// its shard's gradients, gradients are averaged (ring all-reduce), every
// replica applies the same update.
//
// With Config.StepRetries > 0, the iteration is checkpointed before it
// runs; a transient device failure rolls the trainer back to the checkpoint
// and re-runs the identical iteration (inputs were fed once and persist in
// the replicas' blobs, and the RNG rewinds with the checkpoint, so the
// retried step is bit-for-bit the step that failed). Terminal errors and
// exhausted retries propagate.
func (t *Trainer) Step(feed FeedFunc) (StepResult, error) {
	// Adaptive boundary first: plan swaps and shadow evictions are only
	// legal between iterations, and when one happens this step must run
	// from a checkpoint that already includes the width transition.
	var acp *Checkpoint
	if t.adaptive {
		acp = t.adaptiveBoundary()
	}
	// Feeding happens exactly once per Step, outside the retry loop: the
	// feeder's own state (e.g. a shared RNG) must advance once per
	// iteration regardless of how many attempts the iteration takes. The
	// feeder sees shard indices (identical to replica indices until an
	// eviction); a degraded trainer also refreshes its per-shard stash so
	// survivors can replay shards they inherit mid-step.
	for s, o := range t.owners {
		r := t.replicas[o]
		if feed != nil {
			if err := feed(s, r.net); err != nil {
				return StepResult{}, err
			}
		}
		if t.stash != nil {
			t.stashShard(s, r.net)
		}
	}
	if t.stepRetries <= 0 && !t.elastic && acp == nil {
		res, err := t.stepOnce()
		if err == nil && t.adaptive {
			t.pinnedTick()
		}
		return res, err
	}
	cp := acp
	if cp == nil {
		cp = t.Checkpoint()
	}
	res, err := t.stepOnce()
	for attempt := 0; err != nil; {
		// Permanent device loss: evict the replica, rewind to the step's
		// checkpoint, and re-run on the survivors. Evictions do not consume
		// the transient-retry budget — the device set shrank, the step
		// itself never misbehaved.
		if t.elastic && core.IsDeviceLost(err) {
			idx, ok := failedReplica(err)
			if !ok {
				break
			}
			if evictErr := t.evict(idx); evictErr != nil {
				return res, evictErr
			}
			t.Restore(cp)
			res, err = t.stepOnce()
			continue
		}
		if attempt >= t.stepRetries || !core.IsTransient(err) {
			break
		}
		attempt++
		t.Restore(cp)
		t.rollbacks++
		res, err = t.stepOnce()
	}
	if err == nil && t.adaptive {
		t.pinnedTick()
	}
	return res, err
}

// onSurvivors runs one phase of a step on every live replica concurrently —
// one goroutine per replica, mirroring the real hardware where each GPU (and
// its driving host thread) advances independently: reset the device clocks,
// run fn, drain. It returns the slowest replica's time. Errors are attributed
// to their replica and surface in ascending replica order, so the outcome is
// deterministic no matter which goroutine finished first.
func (t *Trainer) onSurvivors(fn func(i int, r *replica) error) (time.Duration, error) {
	times := make([]time.Duration, len(t.replicas))
	errs := make([]error, len(t.replicas))
	var wg sync.WaitGroup
	for i, r := range t.replicas {
		if r.lost {
			continue
		}
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			err := r.dev.ResetClocks()
			if err == nil {
				err = fn(i, r)
			}
			if err == nil {
				times[i], err = r.dev.SyncTime()
			}
			if err != nil {
				errs[i] = &replicaError{i, err}
			}
		}(i, r)
	}
	wg.Wait()
	var slowest time.Duration
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		if times[i] > slowest {
			slowest = times[i]
		}
	}
	return slowest, nil
}

// stepOnce runs one synchronous iteration attempt over the original N batch
// shards on whatever replicas survive. A healthy trainer is the case of one
// shard per replica; after an eviction a survivor runs its shards back to
// back (see elastic.go for why that trains the same bits).
func (t *Trainer) stepOnce() (StepResult, error) {
	var res StepResult
	nShards := len(t.owners)
	survivors := t.survivorCount()
	healthy := survivors == nShards // one shard per replica
	compute := t.replicas[0].ctx.Compute
	fold := compute && nShards > 1

	// Arm the overlapped reducer before Phase 1 launches: gradient-ready
	// hooks fire inside the replica goroutines, snapshot device launch
	// sequences for the timeline model, and start each bucket's fold the
	// moment its last gradient lands. That needs every gradient final when
	// its layer retires, so it arms only while every survivor owns exactly
	// one shard: an inherited shard's replay overwrites the diff buffers, and
	// nothing is final until the whole Phase 1 ends. The goroutine launch in
	// onSurvivors publishes t.red to the hooks; finish() below retires it.
	var rd *reduceRun
	if !t.blocking && healthy && nShards > 1 {
		for i := range t.replicas {
			t.retire[i].reset()
		}
		rd = newReduceRun(t, compute)
		t.red = rd
	}

	// Phase 1: local forward/backward of every shard on its owner.
	losses := make([]float64, nShards)
	computeTime, err := t.onSurvivors(func(i int, r *replica) error {
		shards := t.shardsOf[i]
		rng, rngOK := r.ctx.RNGState()
		for k, s := range shards {
			if k > 0 {
				if rngOK {
					// Each shard replays the step's draws from the same
					// starting position its healthy owner would have used.
					r.ctx.RestoreRNG(rng)
				}
				// An inherited pass while this runtime is still inside its
				// profiling iteration must run at width 1, exactly like the
				// shard's healthy owner (itself profiling in lockstep) would
				// have run it. Discard the open window so the repeat sighting
				// does not analyze plans mid-iteration and dispatch at
				// planned width early — width is part of the numeric contract.
				if t.fw != nil {
					if rt := t.fw.Runtime(r.dev); rt.Profiling() {
						rt.ResetProfiling()
					}
				}
			}
			if t.stash != nil {
				t.loadShard(s, r.net)
			}
			loss, err := r.net.ForwardBackward(r.ctx)
			if err != nil {
				return fmt.Errorf("parallel: replica %d shard %d: %w", i, s, err)
			}
			losses[s] = loss
			if fold && len(shards) > 1 {
				t.stashGrads(s, r)
			}
		}
		return nil
	})
	// Every hook has fired by the join; await in-flight bucket folds before
	// anything (including an error-path retry, whose backward would race
	// them) proceeds, then disarm.
	var foldErr error
	if rd != nil {
		foldErr = rd.finish()
		t.red = nil
	}
	if err != nil {
		return res, err
	}
	res.ComputeTime = computeTime
	// Summed in shard order, so MeanLoss is deterministic and independent of
	// which replica ran which shard.
	var lossSum float64
	for _, l := range losses {
		lossSum += l
	}
	res.MeanLoss = lossSum / float64(nShards)
	if foldErr != nil {
		return res, foldErr
	}

	// Phase 2: all-reduce — average the shard gradients in ascending shard
	// order (real math). With the reducer armed the folds already ran bucket
	// by bucket as backward retired layers; only the timeline split remains.
	// Otherwise (the blocking reference arm, or a degraded step) the same
	// fold runs over every bucket now and the whole ring time is exposed.
	if rd != nil {
		if compute && !rd.allFolded() {
			return res, fmt.Errorf("parallel: overlapped all-reduce left buckets unreduced (gradient-ready hooks missed)")
		}
		res.CommTime, res.OverlappedComm = rd.commTimes(res.ComputeTime)
		if compute {
			res.BucketsReduced = t.plan.NumBuckets()
		}
		t.accountComm(res.BucketsReduced, res.OverlappedComm, res.CommTime)
	} else {
		if fold {
			for bi := range t.plan.buckets {
				if err := t.foldBucket(&t.plan.buckets[bi]); err != nil {
					return res, err
				}
			}
			// The healthy blocking arm models one monolithic ring and
			// reports no buckets.
			if !t.blocking || !healthy {
				res.BucketsReduced = t.plan.NumBuckets()
			}
		}
		res.CommTime = t.bus.AllReduceTime(survivors, t.gradBytes)
		if survivors > 1 || fold {
			t.accountComm(res.BucketsReduced, 0, res.CommTime)
		}
	}

	// Phase 3: identical updates on every survivor — each replica's solver
	// math touches only its own buffers.
	updateTime, err := t.onSurvivors(func(i int, r *replica) error {
		if err := r.solver.ApplyUpdate(); err != nil {
			return fmt.Errorf("parallel: update replica %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, r := range t.replicas {
		if !r.lost {
			r.solver.SetIter(t.iter + 1) // keep LR schedules advancing
		}
	}
	res.IterTime = res.ComputeTime + res.CommTime + updateTime
	t.iter++
	return res, nil
}

// Iter returns completed steps.
func (t *Trainer) Iter() int { return t.iter }

// Framework returns the GLP4NN framework driving the replicas (nil when
// the trainer runs the serial launcher). Chaos tests read the per-device
// ledgers through it to prove recovery paths fired.
func (t *Trainer) Framework() *core.Framework { return t.fw }
