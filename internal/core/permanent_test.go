package core

import (
	"testing"

	"repro/internal/simgpu"
)

// Regression tests for the permanent fault class: a FaultError with
// Transient() == false must abort every bounded-retry ladder on first
// sight. Spinning a backoff ladder against CUDA_ERROR_DEVICE_LOST (or a
// hardened sticky-context site) wastes the retry budget and delays the
// trainer's eviction decision, so each test pins the exact ledger counters
// an early abort leaves behind.

// TestPermanentLaunchFaultAbortsLadder: a launch site hardened by
// PermanentAfter stops the launch ladder at the first permanent fault —
// one transient retry (the fault before hardening), then straight out.
func TestPermanentLaunchFaultAbortsLadder(t *testing.T) {
	inj := simgpu.FaultPlan{Seed: 11, Launch: 1, PermanentAfter: 1}.Injector()
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(inj))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	runs := 0
	err := dispatch(rt, "k", func() { runs++ })
	if err == nil {
		t.Fatal("launch succeeded under an always-faulting permanent site")
	}
	if IsTransient(err) {
		t.Fatalf("hardened fault classified transient: %v", err)
	}
	if IsDeviceLost(err) {
		t.Fatalf("site fault misclassified as device loss: %v", err)
	}
	if runs != 0 {
		t.Fatalf("kernel math ran %d times under a failing launch", runs)
	}
	snap := rt.Ledger().Snapshot()
	// Fault 1 is transient (one retry), fault 2 is hardened: the ladder
	// must abort there, not burn the remaining launchAttempts budget.
	if snap.LaunchRetries != 1 {
		t.Fatalf("LaunchRetries = %d, want exactly 1 (abort on first permanent fault)", snap.LaunchRetries)
	}
	// The non-transient return path must not escalate to quarantine /
	// degrade / launch-failure bookkeeping — those are transient remedies.
	if snap.LaunchFailures != 0 || snap.StreamQuarantines != 0 || snap.Degradations != 0 {
		t.Fatalf("permanent fault escalated transient remedies: %s", snap.Health())
	}
	if st := inj.Stats(); st.Launches != 2 || st.Permanents != 1 {
		t.Fatalf("injector saw %d launch faults (%d permanent), want 2 (1 permanent)", st.Launches, st.Permanents)
	}
}

// TestPermanentSyncFaultAbortsLadder: same contract on the sync ladder.
func TestPermanentSyncFaultAbortsLadder(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 12, Sync: 1, PermanentAfter: 1}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	err := rt.Sync()
	if err == nil || IsTransient(err) {
		t.Fatalf("hardened sync fault not surfaced as permanent: %v", err)
	}
	if snap := rt.Ledger().Snapshot(); snap.SyncRetries != 1 {
		t.Fatalf("SyncRetries = %d, want exactly 1 (abort on first permanent fault)", snap.SyncRetries)
	}
}

// TestPermanentMemcpyFaultAbortsLadder: same contract on the DMA ladder.
func TestPermanentMemcpyFaultAbortsLadder(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 13, Memcpy: 1, PermanentAfter: 1}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	err := rt.UploadBytes(1 << 20)
	if err == nil || IsTransient(err) {
		t.Fatalf("hardened memcpy fault not surfaced as permanent: %v", err)
	}
	if snap := rt.Ledger().Snapshot(); snap.MemcpyRetries != 1 {
		t.Fatalf("MemcpyRetries = %d, want exactly 1 (abort on first permanent fault)", snap.MemcpyRetries)
	}
}

// TestPermanentCreateFaultPinsFallback: a hardened stream-creation site
// stops the create ladder early and pins the default-stream copy fallback;
// the staged copy itself still succeeds, degraded but correct.
func TestPermanentCreateFaultPinsFallback(t *testing.T) {
	inj := simgpu.FaultPlan{Seed: 14, CreateStream: 1, PermanentAfter: 1}.Injector()
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(inj))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	if err := rt.StageInput(1 << 20); err != nil {
		t.Fatalf("staged copy failed instead of degrading to the default stream: %v", err)
	}
	// Create fault 1 is transient (retried), fault 2 permanent: exactly
	// two creation attempts, not the full createAttempts budget.
	if st := inj.Stats(); st.CreateStream != 2 {
		t.Fatalf("injector saw %d creation attempts, want exactly 2", st.CreateStream)
	}
	snap := rt.Ledger().Snapshot()
	if snap.Degradations != 1 {
		t.Fatalf("Degradations = %d, want 1 (copy pinned to default stream)", snap.Degradations)
	}
	if snap.CopyOverlapNs != 0 {
		t.Fatalf("default-stream fallback credited copy overlap: %s", snap.Health())
	}
}

// TestDeviceLossAbortsEveryLadderImmediately: device loss latches — every
// failable operation after the loss fails permanently on its first
// attempt, with zero retries charged to any ladder.
func TestDeviceLossAbortsEveryLadderImmediately(t *testing.T) {
	inj := simgpu.FaultPlan{Seed: 15, DeviceLossAfter: 1}.Injector()
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(inj))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	runs := 0
	ops := []struct {
		name string
		call func() error
	}{
		{"launch", func() error { return dispatch(rt, "k", func() { runs++ }) }},
		{"sync", rt.Sync},
		{"memcpy", func() error { return rt.UploadBytes(1 << 20) }},
	}
	for _, op := range ops {
		err := op.call()
		if err == nil {
			t.Fatalf("%s succeeded on a lost device", op.name)
		}
		if IsTransient(err) {
			t.Fatalf("%s: device loss classified transient: %v", op.name, err)
		}
		if !IsDeviceLost(err) {
			t.Fatalf("%s: loss not detectable via IsDeviceLost: %v", op.name, err)
		}
	}
	if runs != 0 {
		t.Fatalf("kernel math ran %d times on a lost device", runs)
	}
	snap := rt.Ledger().Snapshot()
	if snap.LaunchRetries != 0 || snap.SyncRetries != 0 || snap.MemcpyRetries != 0 {
		t.Fatalf("lost device was retried: %s", snap.Health())
	}
	if snap.LaunchFailures != 0 || snap.StreamQuarantines != 0 {
		t.Fatalf("device loss escalated transient remedies: %s", snap.Health())
	}
	st := inj.Stats()
	if !st.DeviceLost || st.LostOps != int64(len(ops)) {
		t.Fatalf("injector stats = %+v, want latched loss with %d lost ops", st, len(ops))
	}
}
