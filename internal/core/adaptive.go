package core

// Adaptive re-profiling. The paper profiles each layer once and keeps its
// plan. Two kinds of cached plan are not that plan but the runtime's
// reaction to a fault: a Serial plan (a watchdog or pool-growth demotion,
// DESIGN §7.1) and a plan solved from no records (SolvedFrom == 0: the profiling
// window was lost or the analysis failed). Under SetAdaptive, StepBoundary
// flags exactly those keys — a zero-record plan only once its layer has
// completed a kernel since the previous boundary, so a pure-host layer,
// whose honest profile is empty, is never flagged — and the caller
// (parallel.Trainer, or a serving batch loop) evicts them with
// ScheduleReprofile, so the next iteration re-profiles them through the
// exact machinery of a first sighting and the re-solved plan swaps in at the
// following boundary. Each key is re-profiled at most DefaultMaxReprofiles
// times.
//
// The numeric contract: a plan swap changes the layer's width, and width
// determines the chain→scratch mapping and gradient-partial fold order —
// so swaps are only ever applied at checkpointed step boundaries (the
// trainer takes the checkpoint; see parallel.Config.Adaptive), and a run's
// trained bits are a function of its width *schedule* alone. A serial
// re-run that installs the same widths at the same boundaries (the
// InstallPlan resume contract) reproduces the adaptive run bit for bit;
// parallel.TestAdaptivePlanSwapInvariance asserts exactly that.

// DefaultMaxReprofiles caps how many times one key may be re-profiled over
// the runtime's lifetime: a layer whose fault keeps recurring (its re-solved
// plan is demoted or loses its records again) would otherwise re-profile
// forever.
const DefaultMaxReprofiles = 3

// SetAdaptive arms re-profiling: the completion listener starts noting which
// layer keys complete a kernel, and StepBoundary starts flagging
// fault-pinned plans.
func (r *Runtime) SetAdaptive() {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	r.ran = map[string]bool{}
	r.adaptive.Store(true)
}

// StepBoundary returns, sorted, the keys to re-profile at this step (or
// serving batch) boundary: every cached plan a fault pinned — Serial, or
// solved from no records by a layer that completed a kernel since the
// previous boundary — that has re-profiles left under DefaultMaxReprofiles.
// Each flagged key is charged to the ledger. Returns nil until SetAdaptive.
func (r *Runtime) StepBoundary() []string {
	if !r.adaptive.Load() {
		return nil
	}
	r.obsMu.Lock()
	ran := r.ran
	r.ran = map[string]bool{}
	r.obsMu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	var keys []string
	for _, p := range r.analyzer.Plans() {
		pinned := p.Serial || (p.SolvedFrom == 0 && ran[p.Key])
		if pinned && r.reprofiles[p.Key] < DefaultMaxReprofiles {
			keys = append(keys, p.Key)
		}
	}
	r.ledger.add(&r.ledger.s.DriftEvents, int64(len(keys)))
	return keys
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
			r.reprofiles = map[string]int{}
		}
		r.reprofiling[key] = true
		r.reprofiles[key]++
		r.ledger.add(&r.ledger.s.Reprofiles, 1)
		n++
	}
	return n
}
