// Package core is GLP4NN itself: the light-weight parallelization framework
// of the paper, built from its four modules —
//
//   - resource tracker (Tracker): a compact CUPTI-based kernel profiler and
//     parser that collects launch configurations and timings at runtime;
//   - kernel analyzer (Analyzer): the analytical model of Section 3.2,
//     solved as a small MILP (Eq. 1–9), with a per-device concurrency
//     maintainer cache;
//   - stream manager (StreamManager/StreamPool): a pool of CUDA streams so
//     concurrent kernels need no extra host threads or processes;
//   - runtime scheduler (Runtime): profiles a layer's kernels on first
//     sight, invokes the analyzer, sizes the stream pool, and thereafter
//     dispatches each batch sample's kernel chain round-robin over the
//     pool.
//
// Topology follows Fig. 5 of the paper: one Tracker and one StreamManager
// per machine (shared), one Analyzer and one Runtime per GPU device.
package core

import (
	"fmt"
	"sync"
	"time"
)

// Ledger accumulates GLP4NN's one-time overheads for one device — the
// quantities of the paper's cost model (Section 3.3.2): host memory
// (mem_tt, mem_K, mem_cupti; Fig. 10) and time (T_p profiling, T_a
// analysis, T_s scheduling; Table 6) — plus the counters whose events the
// runtime itself produces: self-healing health, the adaptive controller and
// the unified budget. The prefetch and serving groups are the exception: a
// data.Prefetcher or serve.Server keeps its own Stats and the ledger only
// mirrors them when wired in as that object's Observer. Counters of the
// multi-device trainer live on parallel.Trainer, not here.
type Ledger struct {
	mu sync.Mutex

	// s holds every counter under mu. Its four Serve*P quantile fields stay
	// zero here; Snapshot fills them from the latency windows.
	s             Snapshot
	serveReqLat   *LatencyWindow
	serveBatchLat *LatencyWindow
}

// Per-record host memory for the tracker's own structures: two 8-byte
// timestamps (mem_tt) and a parsed launch configuration (mem_K).
const (
	MemTTPerRecord = 16
	MemKPerRecord  = 56
)

// Snapshot is a copy of the ledger's counters.
type Snapshot struct {
	MemTT    int64
	MemK     int64
	MemCUPTI int64

	Tp time.Duration
	Ta time.Duration
	Ts time.Duration

	ProfiledKernels int64
	AnalyzedLayers  int64
	Dispatches      int64
	// DAGDispatches counts the subset of Dispatches issued by concurrent
	// LayerSessions of the operator DAG scheduler (inter-layer
	// parallelism), as opposed to the runtime's serial per-layer path.
	DAGDispatches int64

	// ProfileFailures counts profiling sessions that could not start or
	// collect; AnalyzeFailures counts profiles the analyzer rejected. Each
	// failure pins the affected layers to a cached serial-fallback plan.
	ProfileFailures int64
	AnalyzeFailures int64

	// Self-healing health counters. LaunchRetries / SyncRetries /
	// MemcpyRetries count transient device errors absorbed by bounded
	// retry; LaunchFailures counts launches that exhausted every retry and
	// stream choice; StreamQuarantines counts pool streams torn down after
	// persistent launch failures; Degradations counts layers demoted to the
	// serial default-stream fallback plan; WatchdogTrips counts kernels the
	// sync watchdog flagged as hung.
	LaunchRetries     int64
	LaunchFailures    int64
	SyncRetries       int64
	MemcpyRetries     int64
	StreamQuarantines int64
	Degradations      int64
	WatchdogTrips     int64

	// Input-pipeline counters. PrefetchHits counts batches the async
	// prefetcher had ready before the trainer asked; PrefetchStalls counts
	// the times the trainer had to wait (PrefetchStallNs is that waiting,
	// summed); CopyOverlapNs is the modeled device time of input H2D
	// copies issued on the runtime's dedicated copy stream — transfer time
	// taken off the critical path relative to a default-stream upload.
	PrefetchHits    int64
	PrefetchStalls  int64
	PrefetchStallNs int64
	CopyOverlapNs   int64

	// Serving counters (inference path). ServeRequests counts client
	// requests answered; ServeBatches counts device batches the dynamic
	// batcher flushed; ServeSamples sums their occupancies, so
	// ServeSamples/ServeBatches is the mean coalescing factor. The
	// quantiles are nearest-rank over a sliding window: request latency is
	// enqueue→answer (queueing + compute), batch latency is flush→done.
	ServeRequests int64
	ServeBatches  int64
	ServeSamples  int64
	ServeReqP50   time.Duration
	ServeReqP99   time.Duration
	ServeBatchP50 time.Duration
	ServeBatchP99 time.Duration

	// Adaptive-controller counters. DriftEvents counts keys StepBoundary
	// flagged because a fault pinned their plan (Serial, or solved from no
	// records); Reprofiles counts layers evicted into a shadow re-profiling
	// window;
	// PlanSwaps counts re-solved plans swapped in at a step boundary.
	DriftEvents int64
	Reprofiles  int64
	PlanSwaps   int64

	// Unified-budget counters. BudgetAcquires counts grants of in-flight
	// concurrency units; BudgetThrottles counts grants clamped below the
	// request because other axes held the budget; BudgetPeak is the
	// highest in-flight total observed against BudgetCap.
	BudgetAcquires  int64
	BudgetThrottles int64
	BudgetPeak      int
	BudgetCap       int
}

// Recoveries sums every recovery action the runtime took — nonzero proves
// the fault paths actually fired during a chaos run.
func (s Snapshot) Recoveries() int64 {
	return s.LaunchRetries + s.SyncRetries + s.MemcpyRetries +
		s.StreamQuarantines + s.Degradations + s.WatchdogTrips
}

// Health renders the self-healing counters.
func (s Snapshot) Health() string {
	return fmt.Sprintf("retries: launch=%d sync=%d memcpy=%d | quarantines=%d degradations=%d watchdog=%d launch-failures=%d",
		s.LaunchRetries, s.SyncRetries, s.MemcpyRetries,
		s.StreamQuarantines, s.Degradations, s.WatchdogTrips, s.LaunchFailures)
}

// InputPipe renders the input-pipeline counters.
func (s Snapshot) InputPipe() string {
	return fmt.Sprintf("hits=%d stalls=%d stall-time=%v copy-overlap=%v",
		s.PrefetchHits, s.PrefetchStalls,
		time.Duration(s.PrefetchStallNs).Round(time.Microsecond),
		time.Duration(s.CopyOverlapNs).Round(time.Microsecond))
}

// Serving renders the inference-serving counters.
func (s Snapshot) Serving() string {
	mean := 0.0
	if s.ServeBatches > 0 {
		mean = float64(s.ServeSamples) / float64(s.ServeBatches)
	}
	return fmt.Sprintf("requests=%d batches=%d mean-batch=%.2f | req p50=%v p99=%v | batch p50=%v p99=%v",
		s.ServeRequests, s.ServeBatches, mean,
		s.ServeReqP50.Round(time.Microsecond), s.ServeReqP99.Round(time.Microsecond),
		s.ServeBatchP50.Round(time.Microsecond), s.ServeBatchP99.Round(time.Microsecond))
}

// Adaptive renders the online-controller and unified-budget counters.
func (s Snapshot) Adaptive() string {
	return fmt.Sprintf("pinned=%d reprofiles=%d swaps=%d | budget: acquires=%d throttled=%d peak=%d/%d",
		s.DriftEvents, s.Reprofiles, s.PlanSwaps,
		s.BudgetAcquires, s.BudgetThrottles, s.BudgetPeak, s.BudgetCap)
}

// TTotal is the paper's Eq. 12: T_p + T_a + T_s.
func (s Snapshot) TTotal() time.Duration { return s.Tp + s.Ta + s.Ts }

// MemTotal is the paper's Eq. 10: mem_tt + mem_K + mem_cupti.
func (s Snapshot) MemTotal() int64 { return s.MemTT + s.MemK + s.MemCUPTI }

func (s Snapshot) String() string {
	return fmt.Sprintf("mem_tt=%dB mem_K=%dB mem_cupti=%dB | T_p=%v T_a=%v T_s=%v (kernels=%d layers=%d)",
		s.MemTT, s.MemK, s.MemCUPTI, s.Tp, s.Ta, s.Ts, s.ProfiledKernels, s.AnalyzedLayers)
}

func (l *Ledger) addProfiling(records int64, tp time.Duration, memCupti int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.ProfiledKernels += records
	l.s.MemTT += records * MemTTPerRecord
	l.s.MemK += records * MemKPerRecord
	if memCupti > l.s.MemCUPTI {
		l.s.MemCUPTI = memCupti
	}
	l.s.Tp += tp
}

func (l *Ledger) addAnalysis(ta time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.AnalyzedLayers++
	l.s.Ta += ta
}

// add is the one locked increment behind every single-counter event; c
// points at a field of l.s.
func (l *Ledger) add(c *int64, n int64) {
	l.mu.Lock()
	*c += n
	l.mu.Unlock()
}

// PrefetchHit implements data.Observer: wiring a runtime's ledger into a
// data.Prefetcher lands input-pipeline behavior next to the paper's cost
// counters. Exported because the data package calls it from outside core.
func (l *Ledger) PrefetchHit() { l.add(&l.s.PrefetchHits, 1) }

// PrefetchStall implements data.Observer (see PrefetchHit).
func (l *Ledger) PrefetchStall(wait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.PrefetchStalls++
	l.s.PrefetchStallNs += int64(wait)
}

// ServeRequest implements serve.Observer: one client request answered,
// with its enqueue→answer latency. Wiring a runtime's ledger into a
// serve.Server lands serving behavior next to the paper's cost counters.
func (l *Ledger) ServeRequest(lat time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.ServeRequests++
	if l.serveReqLat == nil {
		l.serveReqLat = NewLatencyWindow(0)
	}
	l.serveReqLat.Add(lat)
}

// ServeBatch implements serve.Observer: one device batch flushed with the
// given occupancy and flush→done latency.
func (l *Ledger) ServeBatch(size int, lat time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.ServeBatches++
	l.s.ServeSamples += int64(size)
	if l.serveBatchLat == nil {
		l.serveBatchLat = NewLatencyWindow(0)
	}
	l.serveBatchLat.Add(lat)
}

func (l *Ledger) addBudgetAcquire(throttled bool, cap, used int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.BudgetAcquires++
	if throttled {
		l.s.BudgetThrottles++
	}
	if used > l.s.BudgetPeak {
		l.s.BudgetPeak = used
	}
	l.s.BudgetCap = cap
}

// tsPerDispatch is the nominal cost of one round-robin stream-selection
// decision; the paper's static scheduler makes T_s "safely ignorable", and
// this keeps it measured rather than assumed.
const tsPerDispatch = 25 * time.Nanosecond

// addDispatch charges one pool-stream dispatch; dag marks one issued from a
// concurrent DAG layer session (DAGDispatches ⊆ Dispatches).
func (l *Ledger) addDispatch(dag bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Dispatches++
	if dag {
		l.s.DAGDispatches++
	}
	l.s.Ts += tsPerDispatch
}

// Snapshot returns a copy of the counters.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.s
	s.ServeReqP50 = quantileOrZero(l.serveReqLat, 0.50)
	s.ServeReqP99 = quantileOrZero(l.serveReqLat, 0.99)
	s.ServeBatchP50 = quantileOrZero(l.serveBatchLat, 0.50)
	s.ServeBatchP99 = quantileOrZero(l.serveBatchLat, 0.99)
	return s
}

func quantileOrZero(w *LatencyWindow, q float64) time.Duration {
	if w == nil {
		return 0
	}
	return w.Quantile(q)
}
