package dnn

import (
	"math/rand"

	"repro/internal/hostpool"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// Phase distinguishes training from testing, like Caffe's phase (dropout and
// accuracy behave differently).
type Phase int

// Phases.
const (
	Train Phase = iota
	Test
)

// Launcher abstracts how kernels reach the device. The naive-Caffe path uses
// SerialLauncher (everything on the default stream); GLP4NN's runtime
// scheduler implements this interface with a concurrent stream pool.
//
// The chain argument groups dependent kernels: kernels sharing a chain id
// (within one layer invocation) must execute in submission order, so a
// launcher must route them to a single stream. Chain -1 denotes
// synchronization-sensitive work that must go to the default stream.
type Launcher interface {
	// BeginLayer marks the start of a layer invocation; key is
	// "<layer>/fwd" or "<layer>/bwd". GLP4NN's runtime scheduler keys its
	// profiling and concurrency plans on it; simple launchers ignore it.
	BeginLayer(key string)
	// Launch dispatches one kernel on behalf of the given dependency chain.
	// k is a shared descriptor: a launcher reads it and never writes it,
	// and runs no host math (Context.Dispatch does, after Launch returns).
	Launch(k *simgpu.Kernel, chain int) error
	// Sync is the inter-layer barrier: after it returns, every kernel
	// launched so far is complete (in virtual time).
	Sync() error
	// Width returns the number of independent chains that can be in flight
	// for the current layer (the stream-pool share); serial launchers
	// return 1. Layers size their per-stream scratch buffers by it.
	Width() int
}

// Uploader is optionally implemented by launchers that can model the
// host→device copy of input batches (cudaMemcpyAsync in Caffe's data
// layer). Net.UploadInputs uses it when present.
type Uploader interface {
	UploadBytes(n int64) error
}

// InputStager is optionally implemented by launchers that own a dedicated
// copy stream (the GLP4NN runtime): StageInput issues an input batch's
// host→device copy concurrently with in-flight compute instead of on the
// default-stream critical path. Net.StageInputs uses it when present,
// falling back to Uploader.
type InputStager interface {
	StageInput(n int64) error
}

// HostLauncher is the launcher with no device: the pure-math path used by
// unit tests and non-simulated training. Its launches are free; the kernels'
// host closures run in Context.Dispatch as on every launcher.
type HostLauncher struct{}

// BeginLayer implements Launcher.
func (HostLauncher) BeginLayer(string) {}

// Launch implements Launcher.
func (HostLauncher) Launch(*simgpu.Kernel, int) error { return nil }

// Sync implements Launcher.
func (HostLauncher) Sync() error { return nil }

// Width implements Launcher.
func (HostLauncher) Width() int { return 1 }

// SerialLauncher is naive Caffe: every kernel on the device's default
// stream. Sync is free because a single stream already serializes, exactly
// like original Caffe, which never synchronizes between layers.
type SerialLauncher struct {
	Dev *simgpu.Device
}

// BeginLayer implements Launcher.
func (SerialLauncher) BeginLayer(string) {}

// Launch implements Launcher.
func (l SerialLauncher) Launch(k *simgpu.Kernel, _ int) error {
	return l.Dev.Launch(k, nil)
}

// Sync implements Launcher.
func (l SerialLauncher) Sync() error { return nil }

// UploadBytes implements Uploader: inputs copy over PCIe on the default
// stream, exactly like Caffe's synchronous data layer.
func (l SerialLauncher) UploadBytes(n int64) error {
	return l.Dev.MemcpyHostToDevice(n, nil)
}

// Width implements Launcher.
func (l SerialLauncher) Width() int { return 1 }

// Context carries per-run execution state through Forward/Backward: the
// launcher, the phase, the RNG (dropout masks, data-independent noise) and
// whether kernel closures actually compute. Compute=false is the
// timing-only mode used by large benchmark workloads (e.g. CaffeNet at
// batch 256), where numerical outputs are irrelevant but the kernel stream
// and its launch configurations must be exact.
//
// With Pool set, Dispatch runs kernel host math chain-parallel: the closure
// of a chain-c kernel executes asynchronously on hostpool lane c % Width(),
// after the kernel was launched inline, so the simulated timeline is
// unchanged. Lanes mirror the layers' per-chain scratch indexing (chain %
// width), so chains that share buffers share a lane and stay serialized;
// everything a lane runs executes in submission order, which keeps training
// bit-identical to serial host execution at the same width. Chain −1 keeps
// default-stream semantics on the host too: it waits for all in-flight lane
// work, then runs inline.
type Context struct {
	L       Launcher
	Phase   Phase
	RNG     *rand.Rand
	Compute bool
	// Pool, when non-nil, is the host-side parallel execution engine used
	// for chain closures. Nil means serial host execution: each closure runs
	// inline right after its launch.
	Pool *hostpool.Pool

	chains *hostpool.ChainSet   // the current layer width's chain set
	sets   []*hostpool.ChainSet // chain sets of setsOf by width, built on first use
	setsOf *hostpool.Pool
	subs   []*Context      // the operator DAG scheduler's per-op contexts, kept so their chain sets are reused
	rngSrc *countingSource // RNG's source when built here; enables RNGState/RestoreRNG
}

// NewContext builds a training-phase context over a launcher with real
// computation enabled and a deterministic, checkpointable RNG (the counting
// source draws the exact sequence rand.NewSource(seed) would).
func NewContext(l Launcher, seed int64) *Context {
	src := newCountingSource(seed)
	return &Context{L: l, Phase: Train, RNG: rand.New(src), Compute: true, rngSrc: src}
}

// NewParallelContext builds a training context whose kernel host math runs
// chain-parallel on the given worker pool (nil selects the shared default
// pool).
func NewParallelContext(l Launcher, seed int64, pool *hostpool.Pool) *Context {
	if pool == nil {
		pool = hostpool.Default()
	}
	c := NewContext(l, seed)
	c.Pool = pool
	return c
}

// Dispatch launches k on behalf of chain, then runs its host closure fn.
// It is the one place a kernel's math runs, and it runs it only after the
// launch succeeded, so a failed launch runs nothing and a retried one runs
// it exactly once: inline on a serial context, on the chain's lane with a
// Pool and a launcher width above 1, and not at all on a timing-only
// context. k is read, never written: a descriptor is built once and shared
// by every pass and every context that steps its net.
func (c *Context) Dispatch(k *simgpu.Kernel, fn func(), chain int) error {
	if err := c.L.Launch(k, chain); err != nil {
		return err
	}
	if !c.Compute || fn == nil {
		return nil
	}
	if c.Pool != nil && chain < 0 {
		// Default-stream semantics on the host: synchronization-sensitive
		// work (parameter updates, gradient folds) runs inline after every
		// in-flight chain closure has finished.
		if err := c.drainChains(); err != nil {
			return err
		}
	}
	width := 1
	if c.Pool != nil && chain >= 0 {
		width = c.Width()
	}
	if width <= 1 {
		fn()
		return nil
	}
	if c.chains == nil || c.chains.Lanes() != width {
		// Width changed (new plan for this layer): the previous set's lanes
		// must drain first so the old chain→lane mapping cannot race the
		// new one.
		if err := c.drainChains(); err != nil {
			return err
		}
		if c.setsOf != c.Pool {
			c.sets, c.setsOf = nil, c.Pool
		}
		for len(c.sets) <= width {
			c.sets = append(c.sets, nil)
		}
		if c.sets[width] == nil {
			c.sets[width] = c.Pool.NewChainSet(width)
		}
		c.chains = c.sets[width]
	}
	c.chains.Submit(chain, fn)
	return nil
}

// desc is one prebuilt launch site: a kernel descriptor, built once (by a
// layer's Setup), and the host closure Dispatch runs after launching it.
// The closure reads its pass's operands from its layer's fields when it
// runs, never from what it captured when it was built: one net is stepped
// by several contexts, Freeze reroutes a layer's bottoms and Compact
// replaces gradient tensors, all after Setup.
type desc struct {
	k  simgpu.Kernel
	fn func()
}

// launch dispatches a prebuilt launch site.
func (c *Context) launch(d *desc, chain int) error { return c.Dispatch(&d.k, d.fn, chain) }

// subContexts returns n private contexts, one per op of a program the DAG
// scheduler runs on c; each op's node is the only user of its context while
// the run lasts.
func (c *Context) subContexts(n int) []*Context {
	for len(c.subs) < n {
		c.subs = append(c.subs, &Context{})
	}
	return c.subs[:n]
}

// drainChains waits for all offloaded chain closures.
func (c *Context) drainChains() error {
	if c.chains == nil {
		return nil
	}
	return c.chains.Wait()
}

// Begin marks the start of a layer invocation for the launcher.
func (c *Context) Begin(key string) { c.L.BeginLayer(key) }

// Barrier is the layer-boundary synchronization: all offloaded host math
// completes, then the launcher joins the device streams.
func (c *Context) Barrier() error {
	if err := c.drainChains(); err != nil {
		return err
	}
	return c.L.Sync()
}

// RowPar returns the context's pool as a row-parallel GEMM runner, or nil
// when the context is serial. Layers hand it to their GEMM closures so large-M
// GEMM closures shard disjoint row bands across the pool; the pool's Run
// never blocks on a full pool (the caller participates), so nesting inside
// an offloaded chain closure is safe.
func (c *Context) RowPar() tensor.RowParallel {
	if c.Pool == nil {
		return nil
	}
	return c.Pool
}

// Width returns the launcher's chain width.
func (c *Context) Width() int {
	w := c.L.Width()
	if w < 1 {
		return 1
	}
	return w
}
