// Package glp4nn is the public façade of this reproduction of
//
//	GLP4NN: A Convergence-invariant and Network-agnostic Light-Weight
//	Parallelization Framework for Deep Neural Networks on Modern GPUs
//	(Fu, Tang, He, Yu, Sun — ICPP 2018)
//
// in pure Go. Because Go cannot drive CUDA directly, the GPU is a
// discrete-event simulator (internal/simgpu) with the paper's three test
// devices; the deep-learning substrate is a Caffe-like framework whose
// numerics are real float32 host math, while kernel *timing* is simulated.
// GLP4NN itself (internal/core) is faithful to the paper: a CUPTI-style
// resource tracker, the Section 3.2 analytical model solved as a MILP, a
// stream pool, and a runtime scheduler that batch-splits convolutions over
// concurrent streams.
//
// # Quick start
//
//	dev := glp4nn.NewDevice(glp4nn.TeslaP100)
//	fw := glp4nn.New()
//	defer fw.Close()
//	ctx := glp4nn.NewContext(fw.Runtime(dev), 42)
//	net, _ := glp4nn.BuildModel("CIFAR10", ctx, 0, 42)
//	solver := glp4nn.NewSolver(net, ctx, glp4nn.CIFAR10QuickSolver())
//	feed := glp4nn.NewFeeder("CIFAR10", 0, 43)
//	for i := 0; i < 100; i++ {
//		feed(net)
//		loss, _ := solver.Step()
//		_ = loss
//	}
//
// Swap fw.Runtime(dev) for glp4nn.Serial(dev) to get the naive-Caffe
// baseline; the trained parameters agree (convergence invariance), the
// simulated timeline does not (that is the speedup).
package glp4nn

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// Re-exported core types. The façade keeps examples and downstream users on
// a single import; the internal packages remain the implementation.
type (
	// Device is a simulated GPU.
	Device = simgpu.Device
	// DeviceSpec describes a GPU model (see TeslaK40C, TeslaP100, TitanXP).
	DeviceSpec = simgpu.DeviceSpec
	// Stream is a CUDA-like stream.
	Stream = simgpu.Stream
	// Kernel is one launchable unit of simulated GPU work.
	Kernel = simgpu.Kernel
	// KernelRecord is a completed kernel's activity record.
	KernelRecord = simgpu.KernelRecord
	// DeviceOption configures a Device at construction (see WithInjector).
	DeviceOption = simgpu.Option

	// FaultPlan is a seeded, probability-per-site fault schedule; its
	// Injector deterministically fails stream creation, launches, copies and
	// synchronizations, hangs kernels, and corrupts profiler records.
	FaultPlan = simgpu.FaultPlan
	// Injector decides, per device operation, whether to inject a fault.
	Injector = simgpu.Injector
	// PlanInjector is the deterministic FaultPlan-driven Injector.
	PlanInjector = simgpu.PlanInjector
	// InjectorStats is the census of faults a PlanInjector has injected.
	InjectorStats = simgpu.InjectorStats
	// FaultError marks an injected failure; the runtime classifies these as
	// transient and retries, degrades or rolls back instead of aborting.
	FaultError = simgpu.FaultError

	// Net is a Caffe-like network.
	Net = dnn.Net
	// Context carries execution state through training.
	Context = dnn.Context
	// Launcher routes kernels to the device (serial or GLP4NN).
	Launcher = dnn.Launcher
	// Solver is momentum SGD.
	Solver = dnn.Solver
	// SolverConfig mirrors Caffe's solver prototxt.
	SolverConfig = dnn.SolverConfig

	// Framework is GLP4NN: shared tracker and stream manager, per-device
	// analyzer and scheduler.
	Framework = core.Framework
	// Runtime is the per-device GLP4NN scheduler (a Launcher).
	Runtime = core.Runtime
	// Plan is one layer's analyzed concurrency configuration.
	Plan = core.Plan
	// OverheadSnapshot is the framework's cost ledger (mem_tt, mem_K,
	// mem_cupti, T_p, T_a, T_s).
	OverheadSnapshot = core.Snapshot

	// Feeder fills a net's inputs with the next mini-batch.
	Feeder = models.Feeder

	// InputPipe is an asynchronous input pipeline for a workload: batch
	// t+1 is synthesized on hostpool workers while batch t computes, and
	// the delivered stream is bit-identical to the synchronous Feeder's.
	InputPipe = models.InputPipe
	// PipeConfig wires an InputPipe (pool, observer).
	PipeConfig = models.PipeConfig
	// PipelineStats counts an input pipeline's hits and stalls.
	PipelineStats = data.PipelineStats
	// PrefetchObserver receives pipeline hit/stall events; a Runtime's
	// *core.Ledger implements it.
	PrefetchObserver = data.Observer

	// DAGStats summarizes a network's operator-level dependency DAG:
	// forward/backward depth, maximum wavefront (independent layers
	// executable at once) and the forward critical path.
	DAGStats = dnn.DAGStats

	// HostPool is the bounded worker pool of the host-side parallel
	// execution engine: kernel host math of independent dependency chains
	// runs on separate goroutines while the simulated timeline is unchanged.
	HostPool = hostpool.Pool

	// FrozenNet is a forward-only inference executor produced by Freeze:
	// training-only layers stripped, dropout folded to identity, gradient
	// storage droppable via Compact, outputs bitwise identical to the
	// training net's Test phase under serial and DAG dispatch alike.
	FrozenNet = dnn.FrozenNet
	// Server answers concurrent single-sample Predict calls by dynamically
	// batching them into a FrozenNet's fixed device batch, flushing on
	// batch-full or a deadline; every answer is bitwise independent of
	// co-batching, padding and flush timing.
	Server = serve.Server
	// ServeConfig tunes a Server (max batch, flush deadline, ledger
	// observer, budget, adaptive hook).
	ServeConfig = serve.Config
	// ServeStats is a Server's request/batch census with p50/p99 latency.
	ServeStats = serve.Stats
	// ServeObserver receives per-request and per-batch serving events; a
	// Runtime's *core.Ledger implements it.
	ServeObserver = serve.Observer
	// LoadGen is the seeded heavy-tailed (Pareto) request load generator
	// used by glp4nn-serve and the servebench experiment.
	LoadGen = serve.LoadGen
	// LatencyWindow is a bounded sliding window with nearest-rank quantiles.
	LatencyWindow = core.LatencyWindow

	// Machine is a multi-GPU host: several simulated devices behind one
	// PCIe-like interconnect.
	Machine = simgpu.Machine
	// Trainer is the synchronous data-parallel multi-device trainer:
	// per-device replicas, deterministic gradient fold, checkpointed step
	// retry, elastic device-loss eviction and durable on-disk checkpoints.
	Trainer = parallel.Trainer
	// TrainerConfig tunes a Trainer (solver schedule, GLP4NN on/off, step
	// retry budget, Elastic device-loss tolerance, prefetch pipelines,
	// Adaptive re-profiling of fault-pinned plans).
	TrainerConfig = parallel.Config
	// BuildFunc constructs one replica's network on its context.
	BuildFunc = parallel.BuildFunc
	// FeedFunc fills one replica's inputs with its shard of the global batch.
	FeedFunc = parallel.FeedFunc
	// StepResult is one synchronous training step's timing breakdown.
	StepResult = parallel.StepResult
	// EvictionEvent records one replica eviction after permanent device loss.
	EvictionEvent = parallel.EvictionEvent
	// DurableInfo is the header of a durable on-disk checkpoint: format
	// version, solver iteration, feeder steps to replay, replica census.
	DurableInfo = parallel.DurableInfo
	// Bus is the modeled inter-device interconnect behind the trainer's
	// ring all-reduce cost (bandwidth plus per-hop latency).
	Bus = parallel.Bus
	// CommStats is the trainer's cumulative all-reduce ledger: buckets
	// reduced, modeled ring time hidden under backward vs left exposed on
	// the critical path (DESIGN §7.7).
	CommStats = parallel.CommStats

	// Budget is the unified SM-concurrency budget shared by chain streams,
	// the DAG wavefront and copy-stream transfers on one device
	// (Runtime.Budget).
	Budget = core.Budget
	// PlanSwapEvent records one width transition the adaptive trainer
	// applied at a checkpointed step boundary (Trainer.SwapEvents): a plan a
	// fault pinned — serial-demoted, or solved from a lost profile —
	// evicted into its re-profile, or its re-solved plan swapping in
	// (TrainerConfig.Adaptive, DESIGN §7.8).
	PlanSwapEvent = parallel.PlanSwapEvent
	// PlanInfo is one checkpointed concurrency plan as read back from a
	// durable checkpoint (DurableInfo.Plans).
	PlanInfo = parallel.PlanInfo

	// ISA is one rung of the host micro-kernel dispatch ladder behind the
	// engine's GEMM (purego → sse2 → avx2). Every rung produces bitwise
	// identical outputs — dispatch is a pure speed decision (DESIGN §7.5).
	ISA = tensor.ISA

	// FusedSite is one fusable GEMM-epilogue site of a built network: the
	// producing conv/ip layer, the kind of epilogue (conv+bias+relu,
	// conv+bias, conv+relu or ip+bias) and the absorbed ReLU layer, if any.
	FusedSite = dnn.FusedSite
)

// The micro-kernel dispatch ladder's rungs, lowest to highest.
const (
	ISAPureGo = tensor.ISAPureGo
	ISASSE2   = tensor.ISASSE2
	ISAAVX2   = tensor.ISAAVX2
)

// The paper's three evaluation GPUs (Table 3).
var (
	TeslaK40C = simgpu.TeslaK40C
	TeslaP100 = simgpu.TeslaP100
	TitanXP   = simgpu.TitanXP
)

// The modeled trainer interconnects.
var (
	PCIe3   = parallel.PCIe3
	NVLink1 = parallel.NVLink1
)

// BusByName resolves an interconnect by CLI-friendly name ("pcie3",
// "nvlink1"); BusNames lists the accepted names.
func BusByName(name string) (Bus, bool) { return parallel.BusByName(name) }

// BusNames lists the interconnect names BusByName accepts.
func BusNames() []string { return parallel.BusNames() }

// Workloads lists the paper's four networks.
var Workloads = models.Names

// ErrOverloaded is returned by Server.PredictContext when the admission
// queue is full: the request was shed without occupying queue space, so
// callers can apply backpressure instead of blocking.
var ErrOverloaded = serve.ErrOverloaded

// NewDevice creates a simulated GPU.
func NewDevice(spec DeviceSpec, opts ...DeviceOption) *Device {
	return simgpu.NewDevice(spec, opts...)
}

// NewDeviceChecked creates a simulated GPU, validating the spec and options
// and surfacing construction faults as errors instead of panics — the
// entry point for fault-tolerant deployments.
func NewDeviceChecked(spec DeviceSpec, opts ...DeviceOption) (*Device, error) {
	return simgpu.NewDeviceChecked(spec, opts...)
}

// WithInjector attaches a fault injector to a device under construction.
func WithInjector(in Injector) DeviceOption { return simgpu.WithInjector(in) }

// DeviceByName resolves "K40C", "P100" or "TitanXP".
func DeviceByName(name string) (DeviceSpec, bool) { return simgpu.DeviceByName(name) }

// New creates a GLP4NN framework.
func New() *Framework { return core.New() }

// Serial returns the naive-Caffe launcher: every kernel on the default
// stream.
func Serial(dev *Device) Launcher { return dnn.SerialLauncher{Dev: dev} }

// FixedPool returns a plain fixed-size stream-pool launcher (the paper's
// motivation-experiment baseline, no profiling or analysis).
func FixedPool(dev *Device, streams int) Launcher { return core.NewFixedLauncher(dev, streams) }

// NewContext builds a training context over a launcher with a fixed seed.
func NewContext(l Launcher, seed int64) *Context { return dnn.NewContext(l, seed) }

// NewHostPool builds a worker pool with the given number of workers
// (≤ 0 selects GOMAXPROCS). Pools are cheap and shareable: one pool can
// back many contexts, bounding total host parallelism machine-wide.
func NewHostPool(workers int) *HostPool { return hostpool.New(workers) }

// NewParallelContext builds a training context whose kernel host math runs
// chain-parallel on a worker pool (nil selects the shared default pool).
// Training remains bitwise identical to NewContext at the same launcher
// width — the engine's convergence-invariance guarantee.
func NewParallelContext(l Launcher, seed int64, pool *HostPool) *Context {
	return dnn.NewParallelContext(l, seed, pool)
}

// WithDAG switches a network onto the operator DAG scheduler and returns
// it: Net.Forward and Net.Backward dispatch independent layers
// concurrently, gated so profiling iterations still run serially and with
// a fixed gradient fold order — trained parameters stay bitwise
// identical to the serial schedule. Net.DAGStats reports how much
// inter-layer parallelism the network offers.
func WithDAG(net *Net) *Net {
	net.EnableDAG(true)
	return net
}

// WithFusedEpilogues switches a built network onto fused GEMM epilogues and
// returns it: bias addition and ReLU activation are applied per row segment
// inside the producing GEMM while the output tile is cache-hot, collapsing
// the separate bias and activation kernels. The epilogues are elementwise
// transforms of a finished GEMM row, so every blob and every trained
// parameter stays bitwise identical to the unfused schedule (DESIGN §7.5);
// it composes freely with WithDAG and the host pool. Net.Summary reports
// the detected sites.
func WithFusedEpilogues(net *Net) *Net {
	net.EnableFusion(true)
	return net
}

// DetectedISA returns the highest micro-kernel ISA level this host can run.
func DetectedISA() ISA { return tensor.DetectedISA() }

// ActiveISA returns the level the GEMM currently dispatches to.
func ActiveISA() ISA { return tensor.ActiveISA() }

// AvailableISAs returns every runnable level in ascending order.
func AvailableISAs() []ISA { return tensor.AvailableISAs() }

// SetISA forces the GEMM dispatch level. Forcing below the detected ceiling
// is always allowed (bits are identical at every rung, so this is a pure
// speed/reproducibility knob — the GLP4NN_ISA environment variable does the
// same at process start); forcing above it is an error.
func SetISA(lv ISA) error { return tensor.SetISA(lv) }

// SetISAName is SetISA for CLI/env-style names ("purego", "sse2", "avx2");
// "auto" or "" restores the detected ceiling.
func SetISAName(name string) error { return tensor.SetISAName(name) }

// ParseISA parses an ISA level name as accepted by GLP4NN_ISA.
func ParseISA(name string) (ISA, error) { return tensor.ParseISA(name) }

// Freeze compiles a built network into a forward-only inference executor.
// Loss/accuracy layers and their exclusive inputs are stripped, dropout
// folds to identity, and Forward always runs the Test phase — so the frozen
// outputs are bitwise identical to the training net's Test-phase forward.
// Call Compact to drop gradient storage once training is over.
func Freeze(net *Net) (*FrozenNet, error) { return dnn.Freeze(net) }

// NewServer starts a dynamic-batching inference server over a frozen net.
// Concurrent Predict calls (one sample each) are coalesced into device
// batches; set ServeConfig.Observer to a Runtime's Ledger to fold serving
// latency into the overhead ledger.
func NewServer(fz *FrozenNet, ctx *Context, cfg ServeConfig) (*Server, error) {
	return serve.New(fz, ctx, cfg)
}

// NewLoadGen builds a seeded heavy-tailed request load generator with the
// given mean inter-arrival gap.
func NewLoadGen(seed int64, mean time.Duration) *LoadGen { return serve.NewLoadGen(seed, mean) }

// NewSolver builds a momentum-SGD solver.
func NewSolver(net *Net, ctx *Context, cfg SolverConfig) *Solver {
	return dnn.NewSolver(net, ctx, cfg)
}

// CIFAR10QuickSolver is the schedule of Caffe's cifar10_quick example.
func CIFAR10QuickSolver() SolverConfig { return dnn.CIFAR10QuickSolver() }

// BuildModel constructs one of the paper's four networks ("CIFAR10",
// "Siamese", "CaffeNet", "GoogLeNet"); batch ≤ 0 selects the paper default.
func BuildModel(name string, ctx *Context, batch int, seed int64) (*Net, error) {
	w, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	return w.Build(ctx, batch, seed)
}

// NewFeeder builds a synthetic-dataset feeder for one of the four
// workloads; batch ≤ 0 selects the paper default.
func NewFeeder(name string, batch int, seed int64) (Feeder, error) {
	w, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	return w.NewFeeder(batch, seed), nil
}

// WithPrefetch builds the asynchronous input pipeline for one of the four
// workloads: the double-buffered, hostpool-parallel replacement for
// NewFeeder, delivering bit-for-bit the same batch stream (convergence
// invariance). Feed with pipe.Feed, stage the device copy with
// Net.StageInputs (the GLP4NN runtime then overlaps it on a dedicated copy
// stream), register the pipe in a parallel trainer's Config.Prefetch so
// checkpoint rollback discards prefetched batches, and Close it when done.
func WithPrefetch(name string, batch int, seed int64, cfg PipeConfig) (*InputPipe, error) {
	return models.NewInputPipe(name, batch, seed, cfg)
}

// Timeline renders kernel records as an ASCII per-stream Gantt chart (the
// textual analogue of the paper's Fig. 3).
func Timeline(records []KernelRecord, width int) string {
	return simgpu.Timeline(records, width)
}

// NewMachine builds a multi-GPU host from device specs.
func NewMachine(specs ...DeviceSpec) *Machine { return simgpu.NewMachine(specs...) }

// NewMachineFromDevices builds a multi-GPU host over pre-constructed
// devices (e.g. devices carrying fault injectors).
func NewMachineFromDevices(devs ...*Device) *Machine {
	return simgpu.NewMachineFromDevices(devs...)
}

// NewTrainer builds a synchronous data-parallel trainer: one replica per
// machine device, deterministic ascending-replica gradient fold, and —
// with TrainerConfig.Elastic — permanent-device-loss eviction that keeps
// training bitwise identical to the healthy N-device run.
func NewTrainer(machine *Machine, build BuildFunc, cfg TrainerConfig) (*Trainer, error) {
	return parallel.NewTrainer(machine, build, cfg)
}

// IsTransient reports whether any error in err's tree marks itself
// retryable (FaultError.Transient() == true). Permanent faults — hardened
// sites and device loss — are not transient: every retry ladder aborts on
// them immediately.
func IsTransient(err error) bool { return core.IsTransient(err) }

// IsDeviceLost reports whether any error in err's tree marks permanent
// whole-device loss — the trainer's signal to evict the replica (see
// TrainerConfig.Elastic) rather than retry or degrade.
func IsDeviceLost(err error) bool { return core.IsDeviceLost(err) }

// PeekCheckpointFile validates a durable checkpoint's header (magic,
// version, length, CRC) and returns its metadata without restoring it —
// the cheap pre-flight a resume path runs before touching trainer state.
// Use Trainer.WriteCheckpointFile / Trainer.RestoreCheckpointFile for the
// full round trip.
func PeekCheckpointFile(path string) (DurableInfo, error) {
	return parallel.PeekCheckpointFile(path)
}

// WriteFileAtomic writes a file via temp-file + fsync + rename, so readers
// see either the previous complete content or the new complete content —
// never a torn write. Checkpoints and saved weights go through this.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return dnn.WriteFileAtomic(path, write)
}

// Version identifies this reproduction.
const Version = "1.0.0"

// Describe returns a one-paragraph summary of the framework configuration
// on a device, for example banners.
func Describe(dev *Device) string {
	s := dev.Spec()
	return fmt.Sprintf("%s (%s): %d SMs × %d cores @ %.3f GHz, %.0f GB/s, %d KB shared/SM, ≤%d concurrent kernels",
		s.Name, s.Arch, s.SMCount, s.CoresPerSM, s.ClockGHz, s.MemBandwidthGBps,
		s.SharedMemPerSMKB, s.MaxConcurrentKernels())
}
