package parallel

import (
	"sort"
	"time"

	"repro/internal/core"
)

// Adaptive concurrency control, trainer side. Each replica's runtime flags
// the plans a fault pinned (core.Runtime.StepBoundary); the trainer drives
// the re-profile at step boundaries, where width changes are safe:
//
//	step N   completes → pinnedTick collects the flagged keys (union across
//	         replicas, so replicas stay in width lockstep) into pinned.
//	step N+1 entry     → adaptiveBoundary checkpoints the trainer, then
//	         ScheduleReprofile evicts the flagged keys on every live
//	         replica. Step N+1 is the shadow window: the evicted layers run
//	         serially at width 1 through the first-sighting profiling path.
//	step N+2 entry     → adaptiveBoundary checkpoints again and finalizes
//	         the re-solved plans (FinalizePlans), swapping the new widths in
//	         atomically before the step runs.
//
// Every width transition therefore happens exactly at a checkpointed step
// boundary, and the full schedule is recorded in swapLog — a non-adaptive
// run that replays the same widths at the same iterations via InstallPlan
// trains bitwise-identical parameters (TestAdaptivePlanSwapInvariance).

// PlanSwapEvent records one width transition applied at a step boundary:
// either a fault-pinned layer entering its shadow re-profile (Shadow=true,
// the layer drops to width 1) or a re-solved plan swapping in
// (Shadow=false).
// Iter is the iteration the transition takes effect before.
type PlanSwapEvent struct {
	Iter       int
	Key        string
	Streams    int
	Serial     bool
	Fallback   bool
	SolvedFrom time.Duration
	Shadow     bool
}

// SwapEvents returns the width-transition schedule the adaptive controller
// applied so far, in application order. Replaying it (InstallPlan with
// Serial=true before the matching iteration) on a non-adaptive trainer
// reproduces the adaptive run's trained bits.
func (t *Trainer) SwapEvents() []PlanSwapEvent {
	out := make([]PlanSwapEvent, len(t.swapLog))
	copy(out, t.swapLog)
	return out
}

// pinnedTick runs after a successful step: take the union of the keys each
// live replica's runtime flagged. The union keeps replicas in width
// lockstep — a layer pinned on one device is re-profiled on all of them,
// because widths must match for the all-reduce fold order to stay
// consistent.
func (t *Trainer) pinnedTick() {
	seen := map[string]bool{}
	for _, r := range t.replicas {
		if r.lost {
			continue
		}
		for _, key := range t.fw.Runtime(r.dev).StepBoundary() {
			seen[key] = true
		}
	}
	if len(seen) == 0 {
		return
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	t.pinned = append(t.pinned, keys...)
}

// adaptiveBoundary runs at Step entry, before inputs are fed. When a swap
// or an eviction is due it checkpoints the trainer first (so a failed step
// retries from a state that already includes the width transition) and
// returns the checkpoint for Step's retry loop; otherwise it returns nil
// and Step proceeds on its normal path.
func (t *Trainer) adaptiveBoundary() *Checkpoint {
	if !t.swapArmed && len(t.pinned) == 0 {
		return nil
	}
	cp := t.Checkpoint()

	if t.swapArmed {
		// The shadow step re-profiled the evicted keys; finalize analyzes
		// the collected profiles and swaps the re-solved plans in on every
		// live replica. Replicas profile the same net deterministically, so
		// each re-solves the same widths.
		var plans *core.Analyzer
		for _, r := range t.replicas {
			if r.lost {
				continue
			}
			rt := t.fw.Runtime(r.dev)
			rt.FinalizePlans()
			if plans == nil {
				plans = rt.Analyzer()
			}
		}
		for _, key := range t.shadowKeys {
			ev := PlanSwapEvent{Iter: t.iter, Key: key, Streams: 1}
			if plans != nil {
				if p, ok := plans.Cached(key); ok {
					ev.Streams = p.Streams
					ev.Serial = p.Serial
					ev.Fallback = p.Fallback
					ev.SolvedFrom = p.SolvedFrom
				}
			}
			t.swapLog = append(t.swapLog, ev)
		}
		t.shadowKeys = nil
		t.swapArmed = false
	}

	if len(t.pinned) > 0 {
		keys := t.pinned
		t.pinned = nil
		evicted := map[string]bool{}
		for _, r := range t.replicas {
			if r.lost {
				continue
			}
			rt := t.fw.Runtime(r.dev)
			for _, key := range keys {
				if rt.ScheduleReprofile([]string{key}) > 0 {
					evicted[key] = true
				}
			}
		}
		for _, key := range keys {
			if !evicted[key] {
				continue
			}
			// The shadow window runs this layer at width 1 (the profiling
			// width) starting this iteration.
			t.swapLog = append(t.swapLog, PlanSwapEvent{
				Iter: t.iter, Key: key, Streams: 1, Shadow: true,
			})
			t.shadowKeys = append(t.shadowKeys, key)
		}
		if len(t.shadowKeys) > 0 {
			t.swapArmed = true
		}
	}
	return cp
}
