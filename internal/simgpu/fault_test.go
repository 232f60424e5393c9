package simgpu

import (
	"errors"
	"testing"
	"time"
)

// TestFaultPlanDeterministic: two injectors built from the same plan make
// identical decisions at every site and occurrence — the reproducibility
// contract the chaos tests depend on.
func TestFaultPlanDeterministic(t *testing.T) {
	plan := FaultPlan{
		Seed: 42, CreateStream: 0.3, Launch: 0.2, Memcpy: 0.25, Sync: 0.15,
		Hang: 0.1, DropRecord: 0.2, TruncateRecord: 0.2,
	}
	a, b := plan.Injector(), plan.Injector()
	ops := []Op{OpCreateStream, OpLaunch, OpMemcpy, OpSync, OpRecord}
	for i := 0; i < 2000; i++ {
		op := ops[i%len(ops)]
		fa, fb := a.Decide(op, "k"), b.Decide(op, "k")
		if (fa.Err == nil) != (fb.Err == nil) || fa.Delay != fb.Delay ||
			fa.Drop != fb.Drop || fa.Truncate != fb.Truncate {
			t.Fatalf("decision %d (%v) diverged: %+v vs %+v", i, op, fa, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %v vs %v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Fatal("schedule injected nothing; probabilities too low for the test to mean anything")
	}
}

// TestFaultPlanSeedsDiffer: distinct seeds give distinct schedules.
func TestFaultPlanSeedsDiffer(t *testing.T) {
	mk := func(seed int64) []bool {
		in := FaultPlan{Seed: seed, Launch: 0.5}.Injector()
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Decide(OpLaunch, "k").Err != nil
		}
		return out
	}
	a, b := mk(1), mk(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 200-launch schedules")
	}
}

// TestFaultPlanMaxFaultsBudget: after MaxFaults injections the device
// behaves perfectly — the outage-window model bounded-retry recovery needs.
func TestFaultPlanMaxFaultsBudget(t *testing.T) {
	in := FaultPlan{Seed: 7, Sync: 1, MaxFaults: 3}.Injector()
	failed := 0
	for i := 0; i < 10; i++ {
		if in.Decide(OpSync, "").Err != nil {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("injected %d sync faults, want exactly MaxFaults=3", failed)
	}
}

// TestInjectedCreateStreamAndSync: certain-failure plans refuse stream
// creation and synchronization with transient errors, and a failed sync
// loses no queued work.
func TestInjectedCreateStreamAndSync(t *testing.T) {
	d := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 1, CreateStream: 1}.Injector()))
	if _, err := d.CreateStream(); err == nil {
		t.Fatal("CreateStream succeeded under a certain-failure plan")
	} else {
		var fe *FaultError
		if !errors.As(err, &fe) || !fe.Transient() {
			t.Fatalf("injected error %v is not a transient FaultError", err)
		}
	}

	d2 := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 1, Sync: 1, MaxFaults: 2}.Injector()))
	launchOK(t, d2, computeKernel("a", 2, 256, 512000), nil)
	if _, err := d2.Synchronize(); err == nil {
		t.Fatal("first Synchronize should fail")
	}
	if _, err := d2.Synchronize(); err == nil {
		t.Fatal("second Synchronize should fail")
	}
	// Budget exhausted: the drain now happens and the kernel completes.
	recs := traceOK(t, d2)
	if len(recs) != 1 || recs[0].Name != "a" {
		t.Fatalf("queued work lost across failed syncs: records %v", recs)
	}
}

// TestInjectedHangStretchesKernel: a hang-scheduled kernel occupies the
// device for at least the configured delay (what a watchdog must detect).
func TestInjectedHangStretchesKernel(t *testing.T) {
	delay := 500 * time.Millisecond
	d := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 5, Hang: 1, HangDelay: delay}.Injector()))
	launchOK(t, d, computeKernel("slow", 2, 256, 512000), nil)
	recs := traceOK(t, d)
	if got := recs[0].Duration(); got < delay {
		t.Fatalf("hung kernel duration %v < injected delay %v", got, delay)
	}
}

// TestInjectedRecordDropAndTruncate: dropped records vanish from the trace
// (and are counted), truncated records survive with zeroed timestamps.
func TestInjectedRecordDropAndTruncate(t *testing.T) {
	d := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 9, DropRecord: 1, MaxFaults: 1}.Injector()))
	launchOK(t, d, computeKernel("lost", 1, 64, 1000), nil)
	launchOK(t, d, computeKernel("kept", 1, 64, 1000), nil)
	recs := traceOK(t, d)
	if len(recs) != 1 || recs[0].Name != "kept" {
		t.Fatalf("want only the second record, got %v", recs)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsLost != 1 {
		t.Fatalf("RecordsLost = %d, want 1", st.RecordsLost)
	}

	d2 := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 9, TruncateRecord: 1}.Injector()))
	launchOK(t, d2, computeKernel("trunc", 2, 256, 512000), nil)
	recs2 := traceOK(t, d2)
	if len(recs2) != 1 {
		t.Fatalf("got %d records", len(recs2))
	}
	if recs2[0].Start != 0 || recs2[0].End != 0 {
		t.Fatalf("truncated record keeps timestamps: %+v", recs2[0])
	}
}

// TestNewDeviceChecked: invalid specs surface as constructor errors; the
// legacy constructor still panics for programming errors.
func TestNewDeviceChecked(t *testing.T) {
	bad := testSpec
	bad.SMCount = 0
	if _, err := NewDeviceChecked(bad); err == nil {
		t.Fatal("NewDeviceChecked accepted an invalid spec")
	}
	if d, err := NewDeviceChecked(testSpec, WithTraceLimit(3)); err != nil || d == nil {
		t.Fatalf("NewDeviceChecked(valid) = %v, %v", d, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice did not panic on an invalid spec")
		}
	}()
	NewDevice(bad)
}

// TestDeviceLossAfterLatches: the deterministic device-loss schedule kills
// the device at exactly the configured failable-operation index, every
// later operation fails permanently, and the failures bypass MaxFaults.
func TestDeviceLossAfterLatches(t *testing.T) {
	in := FaultPlan{Seed: 11, DeviceLossAfter: 4, MaxFaults: 1}.Injector()
	ops := []Op{OpLaunch, OpMemcpy, OpSync, OpCreateStream}
	for i := 0; i < 12; i++ {
		f := in.Decide(ops[i%len(ops)], "k")
		if i < 3 {
			if f.Err != nil {
				t.Fatalf("op %d failed before the loss point: %v", i, f.Err)
			}
			continue
		}
		var fe *FaultError
		if f.Err == nil || !errors.As(f.Err, &fe) {
			t.Fatalf("op %d after loss point did not fail with a FaultError: %v", i, f.Err)
		}
		if fe.Transient() || !fe.DeviceLost || !fe.Permanent {
			t.Fatalf("op %d: device-loss fault not permanent: %+v", i, fe)
		}
		if !IsDeviceLost(f.Err) {
			t.Fatalf("IsDeviceLost(%v) = false", f.Err)
		}
	}
	if !in.Lost() {
		t.Fatal("injector did not latch Lost()")
	}
	st := in.Stats()
	if !st.DeviceLost || st.LostOps != 9 {
		t.Fatalf("stats = %+v, want DeviceLost with 9 lost ops (budget must not cap them)", st)
	}
	if in.Ops() != 12 {
		t.Fatalf("Ops() = %d, want 12", in.Ops())
	}
}

// TestDeviceLossProbabilisticDeterministic: the seeded DeviceLoss coin
// latches at the same failable-operation index for equal plans, and records
// never trip it.
func TestDeviceLossProbabilisticDeterministic(t *testing.T) {
	trip := func() int {
		in := FaultPlan{Seed: 21, DeviceLoss: 0.02}.Injector()
		for i := 0; i < 1000; i++ {
			in.Decide(OpRecord, "r") // records are not failable ops
			if in.Decide(OpLaunch, "k").Err != nil {
				if !in.Lost() {
					t.Fatal("first failure under a pure DeviceLoss plan must latch")
				}
				return i
			}
		}
		return -1
	}
	a, b := trip(), trip()
	if a < 0 {
		t.Fatal("DeviceLoss=0.02 never tripped in 1000 ops")
	}
	if a != b {
		t.Fatalf("loss point diverged between equal plans: %d vs %d", a, b)
	}
}

// TestPermanentAfterHardensSite: a site's faults stay transient up to the
// budget and become permanent past it.
func TestPermanentAfterHardensSite(t *testing.T) {
	in := FaultPlan{Seed: 31, Sync: 1, PermanentAfter: 2}.Injector()
	for i := 0; i < 5; i++ {
		f := in.Decide(OpSync, "")
		var fe *FaultError
		if f.Err == nil || !errors.As(f.Err, &fe) {
			t.Fatalf("sync %d did not fail", i)
		}
		wantPerm := i >= 2
		if fe.Permanent != wantPerm || fe.Transient() == wantPerm {
			t.Fatalf("sync %d: Permanent=%v, want %v", i, fe.Permanent, wantPerm)
		}
		if fe.DeviceLost || IsDeviceLost(f.Err) {
			t.Fatalf("hardened site fault must not claim device loss: %+v", fe)
		}
	}
	if st := in.Stats(); st.Permanents != 3 || st.Syncs != 5 {
		t.Fatalf("stats = %+v, want 3 permanents of 5 syncs", st)
	}
}

// TestDeviceLostFaultSurfacesThroughDevice: a device whose injector has a
// loss schedule refuses launches with an error IsDeviceLost recognises.
func TestDeviceLostFaultSurfacesThroughDevice(t *testing.T) {
	d := NewDevice(testSpec, WithInjector(FaultPlan{Seed: 1, DeviceLossAfter: 1}.Injector()))
	err := d.Launch(computeKernel("k", 1, 64, 1000), nil)
	if err == nil {
		t.Fatal("launch on a lost device succeeded")
	}
	if !IsDeviceLost(err) {
		t.Fatalf("IsDeviceLost(%v) = false", err)
	}
}
