package core

import (
	"math"
	"sort"
	"testing"
	"time"
)

// solvedMap adapts a plain map to StepBoundary's lookup callback.
func solvedMap(m map[string]time.Duration) func(string) (time.Duration, bool) {
	return func(key string) (time.Duration, bool) {
		d, ok := m[key]
		return d, ok
	}
}

// tick observes one duration for each key and folds a step boundary.
func tick(d *DriftDetector, obs map[string]time.Duration, solved map[string]time.Duration) []string {
	for k, v := range obs {
		d.Observe(k, v)
	}
	return d.StepBoundary(solvedMap(solved))
}

func TestDriftDetectorHealingCase(t *testing.T) {
	// A plan solved from an empty/corrupted profile carries SolvedFrom 0:
	// any real observation must drift it once warmup passes.
	d := NewDriftDetector()
	solved := map[string]time.Duration{"conv1/fwd": 0}
	obs := map[string]time.Duration{"conv1/fwd": time.Millisecond}
	if got := tick(d, obs, solved); len(got) != 0 {
		t.Fatalf("drifted during warmup: %v", got)
	}
	if got := tick(d, obs, solved); len(got) != 1 || got[0] != "conv1/fwd" {
		t.Fatalf("healing case did not drift after warmup: %v", got)
	}
}

func TestDriftDetectorBandEdges(t *testing.T) {
	// Exactly on the band edge is inside; one step past it drifts.
	const ref = float64(1000)
	const band = DefaultDriftBand
	cases := []struct {
		obs   float64
		drift bool
	}{
		{ref * (1 + band), false},
		{ref*(1+band) + 1, true},
		{ref / (1 + band), false},
		{ref/(1+band) - 1, true},
		{ref, false},
	}
	for _, c := range cases {
		if got := outsideBand(c.obs, ref); got != c.drift {
			t.Errorf("outsideBand(%v, %v) = %v, want %v", c.obs, ref, got, c.drift)
		}
	}
}

func TestOutsideBandDegenerateInputs(t *testing.T) {
	nan := math.NaN()
	if outsideBand(nan, 1000) {
		t.Error("NaN observation drifted")
	}
	if outsideBand(1000, nan) {
		t.Error("NaN reference drifted")
	}
	if outsideBand(0, 1000) || outsideBand(-5, 1000) {
		t.Error("non-positive observation drifted")
	}
	if !outsideBand(1, 0) || !outsideBand(1, -3) {
		t.Error("non-positive reference with real observation must drift (healing case)")
	}
}

func TestDriftDetectorUnseenAndUnsolvedKeys(t *testing.T) {
	d := NewDriftDetector()
	// Key observed but its plan is unknown to the solver: never drifts.
	obs := map[string]time.Duration{"mystery/fwd": time.Second}
	for i := 0; i < 4; i++ {
		if got := tick(d, obs, map[string]time.Duration{}); len(got) != 0 {
			t.Fatalf("unsolved key drifted: %v", got)
		}
	}
	// Key solved but never observed: StepBoundary skips it entirely.
	solved := map[string]time.Duration{"idle/fwd": time.Millisecond}
	if got := d.StepBoundary(solvedMap(solved)); len(got) != 0 {
		t.Fatalf("never-observed key drifted: %v", got)
	}
	if _, ok := d.Observed("idle/fwd"); ok {
		t.Fatal("never-observed key reported an EWMA")
	}
}

func TestDriftDetectorCooldown(t *testing.T) {
	d := NewDriftDetector()
	solved := map[string]time.Duration{"k": time.Microsecond}
	obs := map[string]time.Duration{"k": time.Second} // way out of band
	for i := 1; i < DefaultDriftWarmup; i++ {
		if got := tick(d, obs, solved); len(got) != 0 {
			t.Fatalf("drifted during warmup fold %d: %v", i, got)
		}
	}
	if got := tick(d, obs, solved); len(got) != 1 {
		t.Fatalf("expected drift on the fold that ends warmup, got %v", got)
	}
	// The cooldown boundaries: the still-drifted key stays quiet.
	for i := 0; i < DefaultDriftCooldown; i++ {
		if got := tick(d, obs, solved); len(got) != 0 {
			t.Fatalf("cooldown boundary %d re-reported drift: %v", i, got)
		}
	}
	if got := tick(d, obs, solved); len(got) != 1 {
		t.Fatalf("expected re-drift after cooldown, got %v", got)
	}
}

func TestDriftDetectorMaxReprofilesAndForget(t *testing.T) {
	d := NewDriftDetector()
	solved := map[string]time.Duration{"k": time.Microsecond}
	obs := map[string]time.Duration{"k": time.Second}

	// Each drift needs DefaultDriftWarmup folds (Forget restarts warmup), so
	// this many boundaries is room for twice the cap.
	drifts := 0
	for i := 0; i < 2*DefaultMaxReprofiles*DefaultDriftWarmup; i++ {
		if got := tick(d, obs, solved); len(got) == 1 {
			drifts++
			d.Forget("k") // caller re-profiles: state resets, evicted count survives
		}
	}
	if drifts != DefaultMaxReprofiles {
		t.Fatalf("cap of %d re-profiles allowed %d drifts", DefaultMaxReprofiles, drifts)
	}
	// Forget reset the EWMA: the key re-warms from scratch.
	if ewma, ok := d.Observed("k"); ok && ewma == 0 {
		t.Fatalf("unexpected zero EWMA after folds")
	}
}

func TestDriftDetectorZeroDurationObservations(t *testing.T) {
	// Zero/negative durations count as observations (the step boundary
	// folds them) but contribute no time — so a layer that only ever
	// reports zeroes never drifts, even against a zero reference.
	d := NewDriftDetector()
	solved := map[string]time.Duration{"k": 0}
	for i := 0; i < 4; i++ {
		d.Observe("k", 0)
		d.Observe("k", -time.Millisecond)
		if got := d.StepBoundary(solvedMap(solved)); len(got) != 0 {
			t.Fatalf("zero-duration observations drifted: %v", got)
		}
	}
}

func TestDriftDetectorEmptyKeyIgnored(t *testing.T) {
	d := NewDriftDetector()
	d.Observe("", time.Second)
	if got := d.StepBoundary(solvedMap(map[string]time.Duration{"": 0})); len(got) != 0 {
		t.Fatalf("empty key drifted: %v", got)
	}
}

// FuzzDriftDetector drives the detector through arbitrary observation
// streams and asserts its structural invariants: no panics, sorted output,
// only solved keys drift, and a drifted key is always one the caller fed
// real time under.
func FuzzDriftDetector(f *testing.F) {
	f.Add(int64(1000), int64(2000), int64(0), "conv1/fwd", false)
	f.Add(int64(0), int64(-5), int64(1), "k", true)
	f.Add(int64(1), int64(1), int64(1<<40), "a|b", false)
	f.Add(int64(77), int64(88), int64(99), "x", true)
	f.Add(int64(5), int64(5), int64(5), "y", false)
	f.Fuzz(func(t *testing.T, d1, d2, ref int64, key string, known bool) {
		d := NewDriftDetector()
		solved := map[string]time.Duration{}
		if known {
			solved[key] = time.Duration(ref)
		}
		lookup := solvedMap(solved)
		// Enough rounds for a drift, its Forget, and a second drift.
		for round := 0; round < 2*DefaultDriftWarmup+1; round++ {
			d.Observe(key, time.Duration(d1))
			d.Observe(key, time.Duration(d2))
			d.Observe(key+"-other", time.Duration(d1))
			drifted := d.StepBoundary(lookup)
			if !sort.StringsAreSorted(drifted) {
				t.Fatalf("unsorted drift report: %v", drifted)
			}
			for _, k := range drifted {
				if _, ok := solved[k]; !ok {
					t.Fatalf("unsolved key %q drifted", k)
				}
				if k == "" {
					t.Fatal("empty key drifted")
				}
				if d1 <= 0 && d2 <= 0 {
					t.Fatalf("non-positive observations drifted %q", k)
				}
				d.Forget(k)
			}
		}
		// A forgotten key must be re-observable without panic.
		d.Observe(key, time.Duration(d1))
		d.StepBoundary(lookup)
	})
}
