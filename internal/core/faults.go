package core

import (
	"time"

	"repro/internal/simgpu"
)

// Fault taxonomy and retry policy of the self-healing runtime.
//
// Errors out of the device fall in two classes:
//
//   - transient: sporadic device/driver hiccups that may succeed on retry —
//     injected simgpu.FaultError values (and anything else implementing
//     Transient() bool → true). The runtime retries these with exponential
//     backoff charged to the host dispatch timeline, then degrades
//     (default-stream launch, stream quarantine, serial width-1 plan)
//     rather than aborting.
//   - terminal: deterministic programming or invariant errors — invalid
//     launch configurations, launches on destroyed streams or foreign
//     devices, engine invariant violations. Retrying cannot help; they
//     propagate immediately.
//
// Every recovery action is counted in the Ledger (LaunchRetries,
// LaunchFailures, SyncRetries, StreamQuarantines, Degradations,
// WatchdogTrips) so a run can prove its fault paths fired.

// transient is the marker interface recoverable errors implement
// (simgpu.FaultError does).
type transient interface{ Transient() bool }

// IsTransient reports whether any error in err's tree marks itself
// transient. It walks both single (Unwrap() error) and joined
// (Unwrap() []error) wrappers.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if t, ok := err.(transient); ok {
		return t.Transient()
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		return IsTransient(u.Unwrap())
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			if IsTransient(e) {
				return true
			}
		}
	}
	return false
}

// IsDeviceLost reports whether any error in err's tree marks permanent
// whole-device loss. Such errors are never transient — every retry ladder
// aborts on them immediately — and they are the trainer's signal to evict
// the replica rather than degrade it.
func IsDeviceLost(err error) bool { return simgpu.IsDeviceLost(err) }

// Retry policy: bounded attempts with exponential backoff. Backoff is
// virtual host time (Device.AdvanceHost), so recovery cost shows up in the
// simulated timeline the way driver-level retry latency would on hardware.
const (
	// launchAttempts bounds tries of one kernel launch per stream choice
	// (first try + retries).
	launchAttempts = 4
	// syncAttempts bounds tries of one device synchronization.
	syncAttempts = 4
	// createAttempts bounds tries of one stream creation.
	createAttempts = 3
	// retryBackoffBase is the first retry's backoff; it doubles per retry.
	retryBackoffBase = 2 * time.Microsecond
)

// backoff returns the exponential delay before retry attempt a (a ≥ 1).
func backoff(a int) time.Duration {
	return retryBackoffBase << (a - 1)
}

// retry is the one retry ladder: call f; stop on success or a non-transient
// error; otherwise bump counter in l (a nil counter counts nothing), charge
// the backoff to dev's host timeline and try again, up to maxAttempts calls.
// Safe for launches, copies, syncs and stream creation alike — a failed
// attempt of any of them rejects the operation before it has an effect.
func retry(dev *simgpu.Device, maxAttempts int, l *Ledger, counter *int64, f func() error) error {
	var err error
	for a := 1; a <= maxAttempts; a++ {
		if err = f(); err == nil || !IsTransient(err) {
			return err
		}
		if a < maxAttempts {
			if counter != nil {
				l.add(counter, 1)
			}
			dev.AdvanceHost(backoff(a))
		}
	}
	return err
}

// DefaultWatchdogLimit is the hung-kernel threshold of Runtime.Sync's
// watchdog: any kernel resident longer than this in virtual time is treated
// as hung and its layer is degraded to the serial fallback plan. Honest
// kernels in the catalog run microseconds to low milliseconds; injected
// hangs default to 2 s (simgpu.DefaultHangDelay).
const DefaultWatchdogLimit = time.Second
