package core

import "sync"

// Budget is the device-wide in-flight concurrency ledger unifying the three
// parallelism axes — batch-level chain streams, DAG layer wavefronts, and
// the copy-stream overlap — under one cap instead of three independent
// ones. Every holder of device concurrency acquires its share before
// dispatching and releases it at its barrier:
//
//   - Runtime.BeginLayer acquires the current plan's stream share and
//     Runtime.Sync releases it (the serial per-layer path);
//   - each DAG LayerSession acquires its own share for its layer and
//     releases it at its Sync, while LayerConcurrencyCap quotes the
//     remaining budget to the DAG scheduler each round;
//   - StageInput holds one unit for the copy stream's in-flight transfer;
//   - a serve.Server holds one unit per in-flight device batch.
//
// Acquire never blocks and always grants at least one unit — the budget
// throttles concurrency, it cannot deadlock progress. A partial grant only
// shrinks how many pool streams a layer's chains spread over (the same
// stream-assignment freedom as ForceSerial), so the budget never changes
// planned widths and therefore never changes trained bits.
type Budget struct {
	mu     sync.Mutex
	cap    int
	used   int
	ledger *Ledger
}

// NewBudget builds a budget with the given cap (≤ 0 selects 1). The ledger
// may be nil.
func NewBudget(cap int, ledger *Ledger) *Budget {
	if cap < 1 {
		cap = 1
	}
	return &Budget{cap: cap, ledger: ledger}
}

// Available returns the unclaimed units (never negative).
func (b *Budget) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used >= b.cap {
		return 0
	}
	return b.cap - b.used
}

// Acquire grants min(want, available) units, but always at least one:
// a caller that must make progress gets the default-stream minimum even
// when the device is saturated (oversubscribing by that floor is how the
// budget stays deadlock-free). A clamped grant is counted as a throttle.
func (b *Budget) Acquire(want int) int {
	if want < 1 {
		want = 1
	}
	b.mu.Lock()
	grant := want
	if avail := b.cap - b.used; grant > avail {
		grant = avail
	}
	if grant < 1 {
		grant = 1
	}
	b.used += grant
	throttled := grant < want
	cap, used := b.cap, b.used
	b.mu.Unlock()
	if b.ledger != nil {
		b.ledger.addBudgetAcquire(throttled, cap, used)
	}
	return grant
}

// Release returns n granted units (floored at an empty budget, so a
// defensive double release cannot underflow).
func (b *Budget) Release(n int) {
	if n < 1 {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Reset forcibly drops every outstanding grant. Rollback paths use it:
// a step that died mid-layer may never reach the Sync that would have
// released its grants, and the retry must start from an empty budget.
func (b *Budget) Reset() {
	b.mu.Lock()
	b.used = 0
	b.mu.Unlock()
}
