package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simgpu"
)

// Runtime is the per-device runtime scheduler module and implements
// dnn.Launcher. Its lifecycle per layer key matches the paper's Fig. 6
// workflow:
//
//  1. First invocation of a layer: its kernels are not yet profiled, so
//     they run serially on the default stream with the resource tracker
//     collecting records (the profiling iteration).
//  2. On a key's second invocation the scheduler flushes the tracker (once
//     per window) and hands that key's profile to the kernel analyzer, which
//     sizes the stream pool for the plan. Each key is analyzed on its own
//     second sighting, not at the window's close: fault injection decides by
//     occurrence order, so the stream creations an analysis triggers must
//     stay among the launches exactly where the fault tests pin them.
//  3. Thereafter every dependency chain (one batch sample's im2col → sgemm
//     → gemmk sequence) is dispatched round-robin onto the pool, using at
//     most the layer's planned number of streams.
type Runtime struct {
	dev      *simgpu.Device
	tracker  *Tracker
	analyzer *Analyzer
	pool     *StreamPool
	ledger   *Ledger

	budget *Budget

	mu        sync.Mutex
	pending   map[string]bool
	profiles  map[string]*LayerProfile // collected but possibly not yet analyzed
	profiling bool
	// root is the runtime's own per-layer state, the session behind its
	// dnn.Launcher methods; forked sessions are further values of the type.
	root LayerSession
	// reprofiling marks keys evicted by ScheduleReprofile whose re-solved
	// plan has not landed yet; the first re-analysis of such a key is the
	// plan swap the ledger counts. reprofiles counts each key's evictions
	// against DefaultMaxReprofiles.
	reprofiling map[string]bool
	reprofiles  map[string]int

	// Completion-listener state: observe flags layer keys whose kernels
	// overstayed wdLimit (Sync drains the set and degrades those layers) and,
	// once SetAdaptive armed it, notes in ran every key that completed a
	// kernel (StepBoundary drains it). Guarded by obsMu, never by r.mu — the
	// listener runs under the device lock and must stay free of device calls
	// and runtime state. listener is the Subscribe token Framework.Close
	// detaches.
	obsMu    sync.Mutex
	listener int
	wdLimit  time.Duration
	wdHung   map[string]bool
	adaptive atomic.Bool
	ran      map[string]bool

	// Copy-stream state for StageInput: a dedicated stream that carries
	// input H2D copies so they overlap pool-stream compute. Created lazily;
	// copyDead pins the default-stream fallback after terminal creation
	// failure. Guarded by copyMu, never by r.mu — staging is called from
	// the training loop, not the launch path.
	copyMu     sync.Mutex
	copyStream *simgpu.Stream
	copyDead   bool
}

func newRuntime(dev *simgpu.Device, tracker *Tracker, analyzer *Analyzer, pool *StreamPool, ledger *Ledger) *Runtime {
	r := &Runtime{
		dev:      dev,
		tracker:  tracker,
		analyzer: analyzer,
		pool:     pool,
		ledger:   ledger,
		budget:   NewBudget(dev.Spec().MaxConcurrentKernels(), ledger),
		pending:  map[string]bool{},
		profiles: map[string]*LayerProfile{},
		wdLimit:  DefaultWatchdogLimit,
	}
	r.root.r = r
	r.listener = dev.Subscribe(r.observe)
	return r
}

// Device returns the scheduled device.
func (r *Runtime) Device() *simgpu.Device { return r.dev }

// Ledger returns the device's overhead ledger.
func (r *Runtime) Ledger() *Ledger { return r.ledger }

// Analyzer returns the device's kernel analyzer (its cached plans are the
// data behind the paper's Fig. 8).
func (r *Runtime) Analyzer() *Analyzer { return r.analyzer }

// Pool returns the device's stream pool.
func (r *Runtime) Pool() *StreamPool { return r.pool }

// Budget returns the device-wide in-flight concurrency budget shared by
// chain streams, DAG wavefronts, the copy stream, and serving batches.
func (r *Runtime) Budget() *Budget { return r.budget }

// BeginLayer implements dnn.Launcher.
func (r *Runtime) BeginLayer(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	plan := r.resolveLocked(key)
	switch {
	case plan != nil:
	case r.pending[key]:
		// Second sighting without a profile: the profiling iteration is
		// over; collect everything and analyze this layer (or adopt the
		// serial fallback a failed collection pinned).
		r.finalizeLocked()
		plan = r.resolveLocked(key)
	default:
		// First sighting: profile it.
		if !r.profiling {
			if err := r.syncRetry(func() error { return r.tracker.StartProfiling(r.dev) }); err != nil {
				// No profiler, no plan, ever: record the failure and pin the
				// serial fallback instead of futilely retrying each iteration.
				r.ledger.add(&r.ledger.s.ProfileFailures, 1)
				plan = r.analyzer.CacheFallback(key)
				break
			}
			r.profiling = true
		}
		r.pending[key] = true
	}
	r.root.adopt(key, plan)
}

// resolveLocked answers "what is this key's plan": the cached plan, else the
// analysis of its collected profile (lazily, once per key), else nil — the
// key is unprofiled or its window is still open. Called with r.mu held.
func (r *Runtime) resolveLocked(key string) *Plan {
	if plan, ok := r.analyzer.Cached(key); ok {
		return plan
	}
	if profile, ok := r.profiles[key]; ok {
		return r.analyzeLocked(profile)
	}
	return nil
}

// analyzeLocked runs the analyzer on a collected profile, charging the
// solve time and sizing the pool. A failed analysis is recorded in the
// ledger and pins a cached serial-fallback plan, so the layer is not
// re-analyzed every iteration. Called with r.mu held.
func (r *Runtime) analyzeLocked(profile *LayerProfile) *Plan {
	plan, err := r.analyzer.Analyze(profile)
	if err != nil {
		r.ledger.add(&r.ledger.s.AnalyzeFailures, 1)
		delete(r.reprofiling, profile.Key)
		return r.analyzer.CacheFallback(profile.Key)
	}
	if r.reprofiling[profile.Key] {
		// An evicted key just got its re-solved plan: that is the
		// plan swap the adaptive controller promised at this boundary.
		delete(r.reprofiling, profile.Key)
		r.ledger.add(&r.ledger.s.PlanSwaps, 1)
	}
	r.dev.AdvanceHost(plan.SolveTime)
	return r.sizePoolLocked(plan)
}

// sizePoolLocked grows the stream pool to a freshly cached plan's width. If
// the device refuses to grow the pool past the default stream, the layer is
// demoted to serial dispatch — the plan keeps its width (the numeric
// contract) but every launch routes to the default stream, so a streamless
// device still trains with unchanged bits. A partial pool (0 < n <
// plan.Streams) is fine: Stream wraps chain indices around the streams that
// do exist. Called with r.mu held.
func (r *Runtime) sizePoolLocked(plan *Plan) *Plan {
	if plan.Streams > 1 && !plan.Serial {
		if n, err := r.pool.EnsureSize(plan.Streams); err != nil && n == 0 {
			r.ledger.add(&r.ledger.s.Degradations, 1)
			return r.analyzer.ForceSerial(plan.Key)
		}
	}
	return plan
}

// finalizeLocked flushes the tracker and stores the parsed profiles. Called
// with r.mu held.
func (r *Runtime) finalizeLocked() {
	if !r.profiling {
		return
	}
	r.profiling = false
	var profiles map[string]*LayerProfile
	err := r.syncRetry(func() error {
		var cerr error
		profiles, cerr = r.tracker.Collect(r.dev, r.ledger)
		return cerr
	})
	if err != nil {
		// The profiling records are lost. Record the failure and pin every
		// pending layer to a cached serial-fallback plan: training proceeds
		// correctly (just without concurrency for these layers) and the
		// collect is not retried forever.
		r.ledger.add(&r.ledger.s.ProfileFailures, 1)
		for _, key := range sortedKeys(r.pending) {
			r.analyzer.CacheFallback(key)
			delete(r.pending, key)
			delete(r.reprofiling, key)
		}
		return
	}
	for _, key := range sortedKeys(profiles) {
		r.profiles[key] = profiles[key]
		delete(r.pending, key)
	}
	// Keys that produced no kernels (pure-host layers) get trivial plans.
	for _, key := range sortedKeys(r.pending) {
		r.profiles[key] = newLayerProfile(key)
		delete(r.pending, key)
	}
}

// sortedKeys returns a map's keys in sorted order, so every iteration over
// profiling state (and therefore analysis order, solve-time charging, and
// report order) is deterministic across runs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// syncRetry runs a device synchronize, or a profiler-control call (each
// issues one under the hood), under the sync retry policy. A transient
// blip during the profiling window would otherwise pin the pending layers
// to width-1 fallback plans forever — a permanent concurrency (and, since
// width is part of the numeric contract, numerics) cost for a recoverable
// fault.
func (r *Runtime) syncRetry(f func() error) error {
	return retry(r.dev, syncAttempts, r.ledger, &r.ledger.s.SyncRetries, f)
}

// ResetProfiling aborts an in-flight profiling iteration: pending layers
// and buffered records are discarded, so the next iteration re-profiles
// from a clean slate. Callers rolling a failed step back to a checkpoint
// must invoke this — otherwise the retried iteration would look like the
// "second sighting", collect the aborted iteration's profile early, and
// run the retry pooled where the original (and any fault-free run) executed
// it serially at width 1. Width is part of the numeric contract, so that
// shortcut would change trained bits; re-profiling keeps the retry
// bit-identical to the iteration it replaces. Profiles already collected
// and plans already analyzed are kept — they came from completed profiling
// windows and stay valid.
func (r *Runtime) ResetProfiling() {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A rollback may have killed the step between a layer's BeginLayer and
	// its Sync; drop every outstanding budget grant so the retry starts
	// from an empty budget.
	r.root.grant = 0
	r.budget.Reset()
	for key := range r.pending {
		delete(r.pending, key)
	}
	if !r.profiling {
		return
	}
	r.profiling = false
	_ = r.syncRetry(func() error {
		_, err := r.tracker.Discard(r.dev)
		return err
	})
}

// Profiling reports whether a profiling window is open — some layers have
// been sighted this iteration but their profiles are not yet collected.
func (r *Runtime) Profiling() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profiling || len(r.pending) > 0
}

// FinalizePlans closes any open profiling window, analyzes every profile
// collected so far, and returns the full plan cache. Checkpoint capture
// uses this: plans are normally analyzed lazily on a layer's second
// sighting, so a checkpoint taken right after the profiling iteration
// would otherwise see an empty cache and lose the planned widths the
// resumed run must reproduce. Analysis is deterministic on a given
// profile, so forcing it early yields exactly the plans the continuing
// run would have computed one BeginLayer later.
func (r *Runtime) FinalizePlans() []*Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finalizeLocked()
	for _, key := range sortedKeys(r.profiles) {
		r.resolveLocked(key)
	}
	return r.analyzer.Plans()
}

// InstallPlan seeds a restored concurrency plan into the analyzer cache
// and sizes the stream pool for it like a fresh analysis would.
// Checkpoint resume calls this for every plan the checkpointed
// run had analyzed, so the resumed run dispatches at the same widths
// without re-running a profiling iteration.
func (r *Runtime) InstallPlan(key string, streams int, serial, fallback bool, solvedFrom time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sizePoolLocked(r.analyzer.Install(key, streams, serial, fallback, solvedFrom))
}

// Width implements dnn.Launcher: the planned stream count for the current
// layer, 1 while profiling.
func (r *Runtime) Width() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root.Width()
}

// Launch implements dnn.Launcher through the root session, copied out under
// r.mu so the launch itself runs unlocked.
func (r *Runtime) Launch(k *simgpu.Kernel, chain int) error {
	r.mu.Lock()
	s := r.root
	r.mu.Unlock()
	return s.Launch(k, chain)
}

// launchRetry launches k on s, recorded under tag, with bounded retry and
// exponential backoff for transient errors, charging the backoff to the
// host timeline.
func (r *Runtime) launchRetry(k *simgpu.Kernel, tag string, s *simgpu.Stream) error {
	return retry(r.dev, launchAttempts, r.ledger, &r.ledger.s.LaunchRetries, func() error {
		return r.dev.LaunchTagged(k, tag, s)
	})
}

// Sync implements dnn.Launcher: the inter-layer barrier joins all pool
// streams through the default-stream synchronization the stream manager
// owns. Transient sync failures are retried with backoff (a failed sync
// loses no queued work — the drain simply has not happened yet). After a
// successful barrier the hung-kernel watchdog verdicts are applied: every
// layer that hosted a kernel overstaying the watchdog limit is degraded to
// serial dispatch (width preserved, pool abandoned).
func (r *Runtime) Sync() error {
	if err := r.syncRetry(func() error {
		_, err := r.dev.Synchronize()
		return err
	}); err != nil {
		return err
	}
	r.mu.Lock()
	r.root.release()
	r.mu.Unlock()
	r.drainWatchdog()
	return nil
}

// observe is the runtime's one device completion listener. It runs under
// the device lock, so it only touches listener state: once SetAdaptive armed
// it, it notes the kernel's layer key as having run, and it flags the layer
// key of any kernel resident longer than the watchdog limit. A healthy
// kernel on an unarmed runtime costs one comparison and one atomic load.
func (r *Runtime) observe(rec simgpu.KernelRecord) {
	hung := r.wdLimit > 0 && rec.Duration() >= r.wdLimit
	adaptive := r.adaptive.Load()
	if !hung && !adaptive {
		return
	}
	key := layerKey(rec.Tag)
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if adaptive {
		r.ran[key] = true
	}
	if !hung {
		return
	}
	r.ledger.add(&r.ledger.s.WatchdogTrips, 1)
	if key == "" {
		return // untagged kernel: nothing to degrade
	}
	if r.wdHung == nil {
		r.wdHung = map[string]bool{}
	}
	r.wdHung[key] = true
}

// drainWatchdog demotes every layer the watchdog flagged since the last
// barrier to serial dispatch. The demoted plan keeps its width so trained
// numerics are untouched; only the layer's concurrency is given up.
func (r *Runtime) drainWatchdog() {
	r.obsMu.Lock()
	hung := r.wdHung
	r.wdHung = nil
	r.obsMu.Unlock()
	if len(hung) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for key := range hung {
		if p, ok := r.analyzer.Cached(key); ok && (p.Serial || p.Streams <= 1) {
			continue // already serial
		}
		r.ledger.add(&r.ledger.s.Degradations, 1)
		plan := r.analyzer.ForceSerial(key)
		if r.root.key == key {
			r.root.plan = plan
		}
	}
}

// Plans returns the analyzer's cached plans.
func (r *Runtime) Plans() []*Plan { return r.analyzer.Plans() }

// ForkLayerSession implements dnn.LayerSessionForker (the return is typed
// any so internal/core stays independent of internal/dnn): it returns a
// launcher view of this runtime serving exactly one concurrent layer
// invocation of an operator DAG schedule.
func (r *Runtime) ForkLayerSession() any { return &LayerSession{r: r, dag: true} }

// LayerSession is one layer invocation's launch state: the key, its plan and
// the budget grant its chains hold. The runtime's own dnn.Launcher methods
// run on its root session (guarded by r.mu, resolved through the profiling
// lifecycle); a forked session is a private per-invocation view for
// concurrent operator-DAG dispatch, so sessions never race on the root slot.
// A fork resolves plans from the analyzer cache only — it never opens a
// profiling window, which is why DAG execution is gated on DAGReady:
// unprofiled layers must first run a serial iteration exactly as a non-DAG
// run would.
type LayerSession struct {
	r     *Runtime
	dag   bool // forked: pool dispatches are charged to the ledger's DAG counter
	key   string
	plan  *Plan
	grant int // budget units held for this session's chains
}

// adopt makes plan (nil = unplanned) the session's plan for key and swaps
// its budget grant to match: the previous layer's share is released and the
// new layer's stream share acquired. A partial grant only shrinks how many
// pool streams the chains spread over (Launch clamps lane selection to the
// grant), so the budget never affects planned widths.
func (s *LayerSession) adopt(key string, plan *Plan) {
	s.release()
	s.key, s.plan = key, plan
	if plan != nil && plan.Streams > 1 && !plan.Serial {
		s.grant = s.r.budget.Acquire(plan.Streams)
	}
}

// release returns the session's budget grant.
func (s *LayerSession) release() {
	if s.grant > 0 {
		s.r.budget.Release(s.grant)
		s.grant = 0
	}
}

// BeginLayer implements dnn.Launcher.
func (s *LayerSession) BeginLayer(key string) {
	plan, _ := s.r.analyzer.Cached(key)
	s.adopt(key, plan)
}

// Launch implements dnn.Launcher: chains round-robin over the layer's
// stream share; chain −1 and unplanned layers use the default stream. The
// share is clamped to the session's budget grant: chains spread over at most
// that many pool streams (a stream-assignment clamp only — the plan's
// width, and therefore trained bits, are untouched); a grant of 1 routes
// everything to the default stream, exactly like a serial-demoted plan.
//
// The kernel is recorded under its tag qualified by the scheduler key,
// key|tag, which a prebuilt descriptor carries resolved (KeyTag): the
// caller's kernel is launched by reference and never written, so a shared
// descriptor cannot accumulate prefixes and concurrent chain dispatch cannot
// race on it.
//
// Self-healing: a transient launch failure is retried with backoff (safe —
// the caller runs a kernel's math only after its launch succeeded, so the
// eventual successful attempt executes it exactly once). If a pool stream
// keeps refusing the kernel, the stream is quarantined and this launch
// degrades to the always-valid default stream; only a default-stream
// failure that survives every retry is surfaced to the caller.
func (s *LayerSession) Launch(k *simgpu.Kernel, chain int) error {
	r, plan := s.r, s.plan
	tag := k.Tag
	if s.key != "" {
		tag = keyTag(s.key, k)
	}
	var stream *simgpu.Stream
	if chain >= 0 && plan != nil && plan.Streams > 1 && !plan.Serial {
		lanes := plan.Streams
		if s.grant > 0 && s.grant < lanes {
			lanes = s.grant
		}
		if lanes > 1 {
			stream = r.pool.Stream(chain % lanes)
			r.ledger.addDispatch(s.dag)
		}
	}
	err := r.launchRetry(k, tag, stream)
	if err == nil || !IsTransient(err) {
		return err
	}
	if stream != nil {
		// The stream is suspect: replace it and fall back to the default
		// stream for this kernel.
		if r.pool.Quarantine(stream) {
			r.ledger.add(&r.ledger.s.StreamQuarantines, 1)
		}
		r.ledger.add(&r.ledger.s.Degradations, 1)
		if err = r.launchRetry(k, tag, nil); err == nil || !IsTransient(err) {
			return err
		}
	}
	r.ledger.add(&r.ledger.s.LaunchFailures, 1)
	return err
}

// keyTag returns k's tag under key, key|tag (key alone for an untagged
// kernel): the descriptor's own KeyTag when it was resolved under key, else
// joined here, which costs a hand-built kernel one string per launch.
func keyTag(key string, k *simgpu.Kernel) string {
	if k.Tag == "" {
		return key
	}
	if kt := k.KeyTag; len(kt) == len(key)+1+len(k.Tag) && kt[:len(key)] == key {
		return kt
	}
	return key + "|" + k.Tag
}

// Sync implements dnn.Launcher: the device-wide barrier (concurrent
// sessions joining it is safe — the underlying synchronize is idempotent).
// The session's budget grant is returned first, so a waiting wavefront
// peer sees the freed share when it queries the cap.
func (s *LayerSession) Sync() error {
	s.release()
	return s.r.Sync()
}

// Width implements dnn.Launcher: the planned stream count for the
// session's layer, 1 for unplanned layers. Width is part of the numeric
// contract, and the cache a fork reads holds exactly the plans a serial run
// would use.
func (s *LayerSession) Width() int {
	if s.plan == nil || s.plan.Streams < 1 {
		return 1
	}
	return s.plan.Streams
}

// DAGReady implements dnn.LayerSessionForker: it reports whether every
// given layer key has an analyzed concurrency plan, closing an open
// profiling window first (the same collection BeginLayer performs on a
// key's second sighting, just for all keys at once). Until it returns
// true the net must execute in exact serial order — so the profiling
// iteration, and therefore every plan and width, matches a serial run and
// trained bits are unchanged.
func (r *Runtime) DAGReady(keys []string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finalizeLocked()
	ready := true
	for _, key := range keys {
		if r.resolveLocked(key) == nil {
			ready = false
		}
	}
	return ready
}

// LayerConcurrencyCap implements dnn.LayerSessionForker: how many layer
// sessions are worth running at once. Budget-informed: each session's
// chains occupy up to its plan's stream share, so the cap is the unified
// budget's *remaining* units divided by the widest non-degraded cached
// plan (at least 1). The DAG scheduler re-queries this every dispatch
// round, so wavefront width breathes with whatever the chain streams,
// copy stream, and serving batches currently hold in flight.
func (r *Runtime) LayerConcurrencyCap() int {
	c := r.budget.Available() / r.analyzer.widest()
	if c < 1 {
		c = 1
	}
	return c
}

// UploadBytes models the host→device input copy on the default stream
// (GLP4NN leaves data movement to the framework it integrates into).
// Transient DMA failures are retried with backoff.
func (r *Runtime) UploadBytes(n int64) error {
	return r.memcpyRetry(n, nil)
}

// StageInput implements dnn.InputStager: the staged input batch's
// host→device copy is issued on the runtime's dedicated copy stream, so
// the transfer proceeds concurrently with pool-stream compute instead of
// serializing on the default stream ahead of it. The modeled copy time is
// credited to the ledger's CopyOverlapNs. Fault policy mirrors the launch
// path: transient memcpy failures retry with backoff; a copy stream that
// keeps refusing the transfer is torn down (recreated on the next call)
// and this copy degrades to the default stream; a device that cannot
// create a copy stream at all is pinned to the default-stream fallback —
// degraded but correct, exactly UploadBytes.
func (r *Runtime) StageInput(n int64) error {
	// The in-flight transfer holds one unit of the unified budget, so the
	// copy stream and the compute axes share one device-wide cap.
	g := r.budget.Acquire(1)
	defer r.budget.Release(g)
	s := r.ensureCopyStream()
	err := r.memcpyRetry(n, s)
	if err == nil {
		if s != nil {
			r.ledger.add(&r.ledger.s.CopyOverlapNs, int64(r.dev.Spec().MemcpyDuration(n)))
		}
		return nil
	}
	if s == nil || !IsTransient(err) {
		return err
	}
	// The copy stream is suspect: replace it and fall back to the default
	// stream for this batch.
	r.copyMu.Lock()
	if r.copyStream == s {
		_ = r.dev.DestroyStream(s)
		r.copyStream = nil
	}
	r.copyMu.Unlock()
	r.ledger.add(&r.ledger.s.StreamQuarantines, 1)
	r.ledger.add(&r.ledger.s.Degradations, 1)
	return r.memcpyRetry(n, nil)
}

// ensureCopyStream returns the dedicated copy stream, creating it lazily
// under the stream-creation retry policy. A terminal creation failure pins
// the default-stream fallback (nil) for the runtime's remaining lifetime.
func (r *Runtime) ensureCopyStream() *simgpu.Stream {
	r.copyMu.Lock()
	defer r.copyMu.Unlock()
	if r.copyStream != nil || r.copyDead {
		return r.copyStream
	}
	s, err := createStream(r.dev)
	if err != nil {
		r.copyDead = true
		r.ledger.add(&r.ledger.s.Degradations, 1)
		return nil
	}
	r.copyStream = s
	return s
}

// memcpyRetry performs one H2D copy on s (nil = default stream) under the
// bounded-retry-with-backoff policy for transient DMA failures.
func (r *Runtime) memcpyRetry(n int64, s *simgpu.Stream) error {
	return retry(r.dev, launchAttempts, r.ledger, &r.ledger.s.MemcpyRetries, func() error {
		return r.dev.MemcpyHostToDevice(n, s)
	})
}
