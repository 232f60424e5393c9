package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/milp"
	"repro/internal/simgpu"
)

// KernelPlan is the analyzer's decision for one kernel: how many instances
// may run concurrently (#K_i of the paper's Eq. 7/9) and the model inputs
// that produced it.
type KernelPlan struct {
	Name        string
	Count       int // #K_i chosen by the MILP
	UpperBound  int // the Eq. 7 bound
	BlocksPerSM int // β_Ki (Eq. 8, clamped to the occupancy limit)
	Threads     int // τ_Ki
	SharedMem   int // sm_Ki
	AvgDuration time.Duration
}

// Plan is one layer's concurrency configuration: the stream-pool share
// C_out = Σ #K_i (Eq. 9) plus diagnostics.
type Plan struct {
	Key            string
	Streams        int
	Kernels        []KernelPlan
	SolveTime      time.Duration
	ActiveThreads  float64 // Σ n_i·τ_i·β_i, the MILP objective
	OccupancyRatio float64 // OR_SM of Eq. 1 implied by the plan
	MILPNodes      int
	// SolvedFrom is the total profiled kernel time the plan was solved
	// from (Σ launches·duration over the layer's profile). Zero means the
	// plan was solved from no records: honest for a pure-host layer, a lost
	// profile for one that launches kernels — the case Runtime.StepBoundary
	// re-profiles under SetAdaptive.
	SolvedFrom time.Duration
	Fallback   bool // true when the MILP was infeasible and Streams=1 was forced
	// Serial marks a plan demoted by the self-healing runtime: every launch
	// routes to the default stream, but Streams keeps the planned width.
	// Width is part of the numeric contract (layers index per-chain scratch
	// and fold gradient partials by width), so preserving it keeps a degraded
	// run bitwise identical to the healthy one — only concurrency is lost.
	Serial bool
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d streams (occupancy %.2f, solve %v)", p.Key, p.Streams, p.OccupancyRatio, p.SolveTime)
	if p.Serial {
		b.WriteString(" [degraded: serial dispatch]")
	}
	for _, k := range p.Kernels {
		fmt.Fprintf(&b, "\n  %-14s #K=%d (bound %d) β/SM=%d τ=%d smem=%dB T=%v",
			k.Name, k.Count, k.UpperBound, k.BlocksPerSM, k.Threads, k.SharedMem, k.AvgDuration)
	}
	return b.String()
}

// Model is a pluggable concurrency model: it turns a layer's kernel profile
// into a plan. The paper's kernel analyzer is explicitly customizable
// ("The analytical model to be utilized can be customized by developers");
// MILPModel is the paper's Section 3.2 formulation and GreedyModel a
// solver-free alternative for the ablation.
type Model interface {
	Name() string
	Solve(spec simgpu.DeviceSpec, p *LayerProfile) *Plan
}

// Analyzer is the kernel analyzer module (Fig. 5): the concurrency analyzer
// solves the configured model; the concurrency maintainer caches the result
// per layer key, so each layer is analyzed once per device.
type Analyzer struct {
	spec   simgpu.DeviceSpec
	ledger *Ledger
	model  Model

	mu    sync.Mutex
	cache map[string]*Plan
}

// NewAnalyzer builds a per-device analyzer with the paper's MILP model.
func NewAnalyzer(spec simgpu.DeviceSpec, ledger *Ledger) *Analyzer {
	return NewAnalyzerWithModel(spec, ledger, MILPModel{})
}

// NewAnalyzerWithModel builds an analyzer with a custom concurrency model.
func NewAnalyzerWithModel(spec simgpu.DeviceSpec, ledger *Ledger, m Model) *Analyzer {
	if m == nil {
		m = MILPModel{}
	}
	return &Analyzer{spec: spec, ledger: ledger, model: m, cache: map[string]*Plan{}}
}

// Model returns the analyzer's concurrency model.
func (a *Analyzer) Model() Model { return a.model }

// Cached returns the plan for a key if it has been analyzed.
func (a *Analyzer) Cached(key string) (*Plan, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.cache[key]
	return p, ok
}

// CacheFallback pins a serial (1-stream) fallback plan for a key whose
// profile could not be collected or analyzed, so the scheduler has a cached
// decision instead of retrying the failed path every iteration. An existing
// cached plan wins: a real analysis is never overwritten by a fallback.
func (a *Analyzer) CacheFallback(key string) *Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.cache[key]; ok {
		return p
	}
	p := &Plan{Key: key, Streams: 1, Fallback: true}
	a.cache[key] = p
	return p
}

// ForceSerial demotes a key to default-stream dispatch, replacing any cached
// concurrent plan with a serial-dispatch copy. This is the degradation path
// of the self-healing runtime — a layer whose kernels hang or whose streams
// the device refuses is pinned back to the default stream, which is always
// correct (it is exactly the profiling-iteration execution mode). The copy
// keeps the plan's Streams width: width determines the chain→scratch mapping
// and gradient-partial fold order, so a width change would alter trained
// bits, while a stream-assignment change cannot (convergence-invariant
// degradation). A key with no cached plan gets a width-1 serial plan.
func (a *Analyzer) ForceSerial(key string) *Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.cache[key]; ok {
		if p.Serial || p.Streams <= 1 {
			return p
		}
		q := *p
		q.Serial = true
		a.cache[key] = &q
		return &q
	}
	p := &Plan{Key: key, Streams: 1, Fallback: true, Serial: true}
	a.cache[key] = p
	return p
}

// Install seeds the concurrency maintainer's cache with a previously
// analyzed plan's numeric decisions. Checkpoint resume uses this: a fresh
// runtime would otherwise open a profiling window and run the first resumed
// iteration at width 1, where the run being resumed executed it at the
// planned width — and width is part of the numeric contract. Only the
// fields dispatch depends on are seeded, plus solvedFrom, so an adaptive
// resumed run still tells a lost profile (0 on a layer that launches
// kernels) from a real one; kernel diagnostics are not restored. An
// installed plan overwrites any cached one.
func (a *Analyzer) Install(key string, streams int, serial, fallback bool, solvedFrom time.Duration) *Plan {
	if streams < 1 {
		streams = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p := &Plan{Key: key, Streams: streams, Serial: serial, Fallback: fallback, SolvedFrom: solvedFrom}
	a.cache[key] = p
	return p
}

// Evict removes a key's cached plan, reporting whether one existed. The
// adaptive controller uses it to force a fault-pinned layer back through
// the first-sighting profiling path.
func (a *Analyzer) Evict(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.cache[key]
	delete(a.cache, key)
	return ok
}

// Plans returns all cached plans (the data behind the paper's Fig. 8),
// sorted by key so reports and checkpoints are stable across runs.
func (a *Analyzer) Plans() []*Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Plan, 0, len(a.cache))
	for _, p := range a.cache {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// widest returns the stream count of the widest non-serial cached plan, at
// least 1.
func (a *Analyzer) widest() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := 1
	for _, p := range a.cache {
		if !p.Serial && p.Streams > w {
			w = p.Streams
		}
	}
	return w
}

// Analyze solves the analytical model for one layer profile and caches the
// plan. The model follows Section 3.2:
//
//	maximize   Σ n_i·τ_i·β_i                    (Eq. 3, active threads/SM)
//	subject to Σ n_i·sm_i·β_i ≤ sm_max          (Eq. 4)
//	           Σ n_i·τ_i·β_i  ≤ τ_max           (Eq. 5)
//	           Σ n_i·β_i      ≤ ρ_max           (resident blocks, Table 2)
//	           1 ≤ Σ n_i      ≤ C               (Eq. 6)
//	           0 ≤ n_i ≤ bound_i                (Eq. 7)
//
// with β_i = max(1, ⌊#β_i/#SM⌋) (Eq. 8) clamped to the kernel's occupancy
// limit, and bound_i = min(⌈T_i/T_launch⌉, τ_max·#SM/(τ_i·#β_i),
// sm_max·#SM/(sm_i·#β_i), C). The paper keeps every n_i ≥ 1; when the
// per-SM budgets cannot host one instance of every kernel simultaneously
// that is infeasible, so the lower bounds are relaxed to 0 with Σ n_i ≥ 1 —
// the walkthrough example of Fig. 6 (conv1 on K40C → 3 streams) comes out
// of exactly this relaxed form.
func (a *Analyzer) Analyze(p *LayerProfile) (*Plan, error) {
	if plan, ok := a.Cached(p.Key); ok {
		return plan, nil
	}
	start := time.Now()
	plan := a.model.Solve(a.spec, p)
	plan.SolveTime = time.Since(start)
	if a.ledger != nil {
		a.ledger.addAnalysis(plan.SolveTime)
	}
	a.mu.Lock()
	a.cache[p.Key] = plan
	a.mu.Unlock()
	return plan, nil
}

// MILPModel is the paper's Section 3.2 analytical model solved exactly.
type MILPModel struct{}

// Name implements Model.
func (MILPModel) Name() string { return "milp" }

// Solve implements Model.
func (MILPModel) Solve(spec simgpu.DeviceSpec, p *LayerProfile) *Plan {
	c := spec.MaxConcurrentKernels()
	smMax := float64(spec.SharedMemPerSM())
	tauMax := float64(spec.MaxThreadsPerSM)
	rhoMax := float64(spec.MaxBlocksPerSM)

	n := len(p.Kernels)
	plan := &Plan{Key: p.Key, Streams: 1, SolvedFrom: p.TotalDuration()}
	if n == 0 {
		plan.Fallback = true
		return plan
	}
	tau, sm, beta, upper, names := modelInputs(spec, p)

	obj := make([]float64, n)
	smRow := make([]float64, n)
	tauRow := make([]float64, n)
	rhoRow := make([]float64, n)
	ones := make([]float64, n)
	integer := make([]bool, n)
	lower := make([]float64, n)
	for i := 0; i < n; i++ {
		obj[i] = tau[i] * beta[i]
		smRow[i] = sm[i] * beta[i]
		tauRow[i] = tau[i] * beta[i]
		rhoRow[i] = beta[i]
		ones[i] = 1
		integer[i] = true
	}
	prob := &milp.Problem{
		Objective: obj,
		Constraints: []milp.Constraint{
			{Coeffs: smRow, Rel: milp.LE, RHS: smMax, Name: "shared-mem (Eq.4)"},
			{Coeffs: tauRow, Rel: milp.LE, RHS: tauMax, Name: "threads (Eq.5)"},
			{Coeffs: rhoRow, Rel: milp.LE, RHS: rhoMax, Name: "resident-blocks"},
			{Coeffs: ones, Rel: milp.LE, RHS: float64(c), Name: "concurrency (Eq.6)"},
			{Coeffs: ones, Rel: milp.GE, RHS: 1, Name: "progress"},
		},
		Lower:    lower,
		Upper:    upper,
		Integer:  integer,
		VarNames: names,
	}
	sol, err := milp.Solve(prob)
	if err != nil || sol.Status != milp.Optimal {
		plan.Fallback = true
		plan.Streams = 1
		return plan
	}

	total := 0
	for i := 0; i < n; i++ {
		cnt := int(math.Round(sol.X[i]))
		total += cnt
		plan.Kernels = append(plan.Kernels, KernelPlan{
			Name:        names[i],
			Count:       cnt,
			UpperBound:  int(upper[i]),
			BlocksPerSM: int(beta[i]),
			Threads:     int(tau[i]),
			SharedMem:   int(sm[i]),
			AvgDuration: p.Kernels[i].AvgDuration,
		})
	}
	if total < 1 {
		total = 1
	}
	if total > c {
		total = c
	}
	plan.Streams = total
	plan.ActiveThreads = sol.Objective
	plan.OccupancyRatio = sol.Objective / tauMax
	plan.MILPNodes = sol.Nodes
	return plan
}
