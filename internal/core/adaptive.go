package core

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Adaptive concurrency control: the online-controller extension of the
// paper's one-shot analyzer (ROADMAP item 4, after the runtime
// concurrency-control line of work). The paper profiles each layer once
// and fixes its plan forever; here a drift detector watches every layer's
// observed kernel time through the device's completion listener, and when
// the per-step EWMA leaves a fixed band around the timing the
// cached plan was solved from (Plan.SolvedFrom), the layer is flagged.
// The caller (parallel.Trainer, or a serving batch loop) then evicts just
// the drifted layers at a step boundary — ScheduleReprofile — so the next
// iteration re-profiles them in an isolated window through the exact
// machinery of a first sighting, and the re-solved plan swaps in at the
// following boundary.
//
// The numeric contract: a plan swap changes the layer's width, and width
// determines the chain→scratch mapping and gradient-partial fold order —
// so swaps are only ever applied at checkpointed step boundaries (the
// trainer takes the checkpoint; see parallel.Config.Adaptive), and a run's
// trained bits are a function of its width *schedule* alone. A serial
// re-run that installs the same widths at the same boundaries (the
// InstallPlan resume contract) reproduces the adaptive run bit for bit;
// parallel.TestAdaptivePlanSwapInvariance asserts exactly that.

// The drift detector's constants. They are not options: the band, the one
// value ever swept, gave identical results at 0.25 / 0.5 / 1.0 (a corrupted
// window drifts at any band; EXPERIMENTS.md "Retired experiments").
const (
	// DefaultDriftBand is the fractional tolerance around a plan's
	// solved-from timing: a layer drifts when its observed EWMA leaves
	// [solved/(1+band), solved·(1+band)].
	DefaultDriftBand = 0.5
	// DefaultDriftAlpha is the EWMA smoothing factor applied per step
	// boundary.
	DefaultDriftAlpha = 0.4
	// DefaultDriftWarmup is how many step boundaries a key must be observed
	// before it may drift (the first folds seed the EWMA).
	DefaultDriftWarmup = 2
	// DefaultDriftCooldown is how many step boundaries a key sits out after
	// being flagged, so a drift the caller chose not to act on is not
	// re-reported every step.
	DefaultDriftCooldown = 2
	// DefaultMaxReprofiles caps how many times one key may be re-profiled
	// over the detector's lifetime: a layer whose profile collection
	// genuinely keeps failing (its re-solved plan stays a zero-timing
	// fallback) would otherwise re-drift forever.
	DefaultMaxReprofiles = 3
)

// driftState is one key's running observation.
type driftState struct {
	ewma     float64 // smoothed per-step observed kernel time, ns
	folds    int     // step boundaries folded into the EWMA
	cool     int     // boundaries left to sit out after a flag
	pending  float64 // kernel time accumulated since the last boundary, ns
	pendingN int     // records behind pending
	evicted  int     // times Forget reset this key (≈ re-profiles)
}

// DriftDetector accumulates per-key kernel timings between step boundaries
// and folds them into per-key EWMAs at each boundary, reporting the keys
// whose EWMA left the band around their plan's solved-from timing. Observe
// is called from the device's completion listener (under the device lock),
// so the detector has its own mutex and never touches runtime or device
// state.
type DriftDetector struct {
	mu   sync.Mutex
	keys map[string]*driftState
}

// NewDriftDetector builds an empty detector.
func NewDriftDetector() *DriftDetector {
	return &DriftDetector{keys: map[string]*driftState{}}
}

// Observe accumulates one completed kernel's duration under key. Zero and
// negative durations still count as observations (a truncated profiler
// record is a legitimate, drift-worthy signal); NaN cannot occur since the
// input is an integer duration.
func (d *DriftDetector) Observe(key string, dur time.Duration) {
	if key == "" {
		return
	}
	d.mu.Lock()
	st := d.keys[key]
	if st == nil {
		st = &driftState{}
		d.keys[key] = st
	}
	if dur > 0 {
		st.pending += float64(dur)
	}
	st.pendingN++
	d.mu.Unlock()
}

// StepBoundary folds the pending observations into each key's EWMA and
// returns, sorted, the keys whose EWMA sits outside the band around the
// timing their plan was solved from. solved reports a key's
// Plan.SolvedFrom; keys it does not know (unseen, still profiling, or
// evicted) never drift. Keys with no observations this step are skipped —
// their EWMA neither decays nor drifts while the layer is not running.
func (d *DriftDetector) StepBoundary(solved func(key string) (time.Duration, bool)) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var drifted []string
	for key, st := range d.keys {
		if st.pendingN == 0 {
			continue
		}
		obs := st.pending
		st.pending, st.pendingN = 0, 0
		if st.folds == 0 {
			st.ewma = obs
		} else {
			st.ewma = DefaultDriftAlpha*obs + (1-DefaultDriftAlpha)*st.ewma
		}
		st.folds++
		if st.cool > 0 {
			st.cool--
			continue
		}
		if st.folds < DefaultDriftWarmup || st.evicted >= DefaultMaxReprofiles {
			continue
		}
		ref, ok := solved(key)
		if !ok {
			continue
		}
		if !outsideBand(st.ewma, float64(ref)) {
			continue
		}
		st.cool = DefaultDriftCooldown
		drifted = append(drifted, key)
	}
	sort.Strings(drifted)
	return drifted
}

// outsideBand reports whether an observed timing (ns) drifted from the
// solved-from reference. NaN observations never drift (garbage in, no
// verdict out). A non-positive reference with positive observations
// always drifts — that is the healing case: the plan was solved from an
// empty or zeroed (fault-corrupted) profile, so any real signal proves the
// plan is stale. Non-positive observations never drift: the layer produced
// no measurable kernel time to judge by.
func outsideBand(obs, ref float64) bool {
	if math.IsNaN(obs) || math.IsNaN(ref) {
		return false
	}
	if obs <= 0 {
		return false
	}
	if ref <= 0 {
		return true
	}
	return obs < ref/(1+DefaultDriftBand) || obs > ref*(1+DefaultDriftBand)
}

// Forget drops a key's state, typically right before its re-profile: the
// fresh plan deserves a fresh EWMA (and warmup) instead of inheriting the
// stale one's history. The per-key eviction count survives — it backs the
// DefaultMaxReprofiles cap.
func (d *DriftDetector) Forget(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	evicted := 0
	if st := d.keys[key]; st != nil {
		evicted = st.evicted
	}
	d.keys[key] = &driftState{evicted: evicted + 1}
}

// Observed returns a key's current EWMA (ns as a duration) and whether the
// key has folded at least one step of observations.
func (d *DriftDetector) Observed(key string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.keys[key]
	if st == nil || st.folds == 0 {
		return 0, false
	}
	return time.Duration(st.ewma), true
}

// SetAdaptive arms the runtime's drift detector: the completion listener
// starts feeding per-key kernel timings into it, and StepBoundary /
// ScheduleReprofile become functional. Calling it again starts a fresh
// detector.
func (r *Runtime) SetAdaptive() {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	r.adaptive = NewDriftDetector()
}

// Adaptive returns the armed drift detector, or nil.
func (r *Runtime) Adaptive() *DriftDetector {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	return r.adaptive
}

// StepBoundary folds this step's observations and returns the sorted keys
// whose timing drifted out of their plan's band. Callers invoke it once
// per training step (or serving batch), between iterations. Each drifted
// key is charged to the ledger.
func (r *Runtime) StepBoundary() []string {
	d := r.Adaptive()
	if d == nil {
		return nil
	}
	drifted := d.StepBoundary(func(key string) (time.Duration, bool) {
		p, ok := r.analyzer.Cached(key)
		if !ok {
			return 0, false
		}
		return p.SolvedFrom, true
	})
	r.ledger.add(&r.ledger.s.DriftEvents, int64(len(drifted)))
	return drifted
}

// ScheduleReprofile evicts the given keys' cached plans and collected
// profiles, so each key's next sighting opens a profiling window exactly
// like a first sighting — the isolated shadow re-profile. The re-solved
// plan lands in the cache on the key's following sighting (or all at once
// via FinalizePlans at the next boundary) and is counted as a plan swap.
// Returns how many keys were actually evicted (unknown keys are skipped).
//
// Width is part of the numeric contract: between the eviction and the
// swap the layer runs at width 1 (the profiling width), and afterwards at
// the re-solved width. Callers must therefore only invoke this at a
// checkpointed step boundary — parallel.Trainer does, and records both
// boundaries so a serial reference can replay the identical width
// schedule.
func (r *Runtime) ScheduleReprofile(keys []string) int {
	d := r.Adaptive()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, key := range keys {
		if !r.analyzer.Evict(key) {
			continue
		}
		delete(r.profiles, key)
		if r.reprofiling == nil {
			r.reprofiling = map[string]bool{}
		}
		r.reprofiling[key] = true
		if d != nil {
			d.Forget(key)
		}
		r.ledger.add(&r.ledger.s.Reprofiles, 1)
		n++
	}
	return n
}
