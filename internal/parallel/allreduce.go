package parallel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dnn"
)

// Bucketed, overlapped, deterministic ring all-reduce.
//
// A blocking Phase-2 all-reduce waits for every replica to finish its whole
// backward pass, then folds all gradients and charges the full ring time as
// exposed communication (Config.BlockingAllReduce keeps that as the
// reference arm). This file overlaps it the way production data-parallel
// stacks do: parameters are
// partitioned into fixed-size buckets in reverse layer order (gradients
// that retire first reduce first), each bucket's ring transfer is launched
// the moment its last gradient lands — while earlier layers are still
// running backward — and the host-side fold math runs concurrently across
// hostpool workers instead of a single-threaded triple loop.
//
// The numeric contract (DESIGN §7.7): the bucket plan is a pure function of
// the net topology and the configured bucket size, computed once at trainer
// build. Within every bucket each element folds ascending-replica-first,
// scales by 1/N last — exactly the per-element operation order of the
// serial reference fold — so bucketing, banding, and fold concurrency
// cannot change a single bit of the result. Crash-resume rebuilds the same
// plan from the same topology, so durable checkpoints persist nothing.
//
// Timeline model: layer retirement times are recovered from the simulated
// device — each gradient-ready hook snapshots the device's launch sequence
// number, and after the step's drain the prefix-max of kernel end times by
// sequence gives the moment that layer's work completed on the virtual
// clock. Buckets ring-reduce sequentially on the bus (one all-reduce in
// flight at a time, matching one ring over the same links), each starting
// at max(bucket ready, bus busy). Ring time that fits under residual
// backward compute is overlapped; only the remainder past the compute
// frontier is exposed, and StepResult.CommTime now charges just that.

// DefaultBucketBytes is the gradient bucket size when Config.BucketBytes is
// zero: small enough that early buckets launch well before backward ends,
// large enough that per-bucket ring latency does not dominate.
const DefaultBucketBytes = 256 << 10

// bandElems is the band granularity of the parallel host-side fold: each
// bucket's elements are pre-split into bands of at most this many float32s,
// and hostpool workers claim bands. Band boundaries do not affect numerics
// (the fold is element-independent); they only bound task granularity.
const bandElems = 16384

// BusByName maps a CLI-friendly interconnect name to its Bus model.
func BusByName(name string) (Bus, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "pcie3", "pcie":
		return PCIe3, true
	case "nvlink1", "nvlink":
		return NVLink1, true
	}
	return Bus{}, false
}

// BusNames lists the names BusByName accepts, for usage strings.
func BusNames() []string { return []string{"pcie3", "nvlink1"} }

// band is one fold task: elements [lo, hi) of one parameter.
type band struct {
	param  int
	lo, hi int
}

// bucketSpec is one gradient bucket of the plan.
type bucketSpec struct {
	params []int // indices into Net.Params() order, reverse-retirement order
	bytes  int64
	owners []int  // deduplicated owner layer entries across the bucket's params
	bands  []band // precomputed fold tasks
	pairs  int    // (param, owner-layer) contributions per replica
}

// BucketPlan partitions a net's parameters into fixed-size gradient buckets
// in reverse layer order. The plan is immutable after construction and part
// of the trainer's numeric contract; see the file comment.
type BucketPlan struct {
	bucketBytes int64
	buckets     []bucketSpec
	// contrib maps a layer entry index to the buckets (with multiplicity,
	// one per owned param) that layer contributes gradients to; the
	// readiness countdown decrements along it as backward retires layers.
	contrib [][]int
}

// NewBucketPlan builds the bucket plan for a net. bucketBytes <= 0 selects
// DefaultBucketBytes.
func NewBucketPlan(net *dnn.Net, bucketBytes int64) *BucketPlan {
	params := net.Params()
	counts := make([]int, len(params))
	for i, p := range params {
		counts[i] = p.Count()
	}
	return newBucketPlan(counts, net.ParamOwners(), net.LayerCount(), bucketBytes)
}

// newBucketPlan is the pure planner core (fuzzed directly): counts[i] is
// parameter i's element count and owners[i] its owning layer entries.
func newBucketPlan(counts []int, owners [][]int, layers int, bucketBytes int64) *BucketPlan {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	p := &BucketPlan{bucketBytes: bucketBytes, contrib: make([][]int, layers)}

	// Reverse-retirement order: backward retires entries N-1..0, and a
	// shared parameter's gradient is final only when its *lowest*-index
	// owner retires. Sort by that finishing layer descending (first to
	// finish first), ties by ascending param index — fully deterministic.
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	finish := func(pi int) int {
		f := owners[pi][0]
		for _, o := range owners[pi][1:] {
			if o < f {
				f = o
			}
		}
		return f
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := finish(order[a]), finish(order[b])
		if fa != fb {
			return fa > fb
		}
		return order[a] < order[b]
	})

	var cur bucketSpec
	flush := func() {
		if len(cur.params) == 0 {
			return
		}
		seen := map[int]bool{}
		for _, pi := range cur.params {
			for _, o := range owners[pi] {
				if !seen[o] {
					seen[o] = true
					cur.owners = append(cur.owners, o)
				}
				cur.pairs++
			}
		}
		sort.Ints(cur.owners)
		bi := len(p.buckets)
		for _, pi := range cur.params {
			for _, o := range owners[pi] {
				p.contrib[o] = append(p.contrib[o], bi)
			}
		}
		p.buckets = append(p.buckets, cur)
		cur = bucketSpec{}
	}
	for _, pi := range order {
		sz := int64(counts[pi]) * 4
		if cur.bytes > 0 && cur.bytes+sz > bucketBytes {
			flush()
		}
		cur.params = append(cur.params, pi)
		cur.bytes += sz
		for lo := 0; lo < counts[pi]; lo += bandElems {
			hi := lo + bandElems
			if hi > counts[pi] {
				hi = counts[pi]
			}
			cur.bands = append(cur.bands, band{param: pi, lo: lo, hi: hi})
		}
		// An oversized parameter still travels whole: a bucket never splits
		// a param, it just seals immediately after one that overflows it.
		if cur.bytes >= bucketBytes {
			flush()
		}
	}
	flush()
	return p
}

// NumBuckets returns how many gradient buckets the plan holds.
func (p *BucketPlan) NumBuckets() int { return len(p.buckets) }

// BucketBytes returns the configured bucket size cap.
func (p *BucketPlan) BucketBytes() int64 { return p.bucketBytes }

// seqEnd pairs a kernel's issue sequence number with its simulated
// completion time.
type seqEnd struct {
	seq int
	end time.Duration
}

// retireLog collects (seq, end) pairs from one device's completion
// listener. The listener runs under the device lock during drains, so add
// only touches the log's own mutex and slice.
type retireLog struct {
	mu   sync.Mutex
	recs []seqEnd
}

func (l *retireLog) add(seq int, end time.Duration) {
	l.mu.Lock()
	l.recs = append(l.recs, seqEnd{seq, end})
	l.mu.Unlock()
}

func (l *retireLog) reset() {
	l.mu.Lock()
	l.recs = l.recs[:0]
	l.mu.Unlock()
}

// retireTimes resolves each marked sequence number to the latest completion
// time among kernels issued at or before it: sort records by seq, prefix-max
// the end times, and binary-search each mark. marks[li] < 0 means layer li
// never fired (no mark) and resolves to 0.
func (l *retireLog) retireTimes(marks []int) []time.Duration {
	l.mu.Lock()
	recs := make([]seqEnd, len(l.recs))
	copy(recs, l.recs)
	l.mu.Unlock()
	sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
	for i := 1; i < len(recs); i++ {
		if recs[i].end < recs[i-1].end {
			recs[i].end = recs[i-1].end
		}
	}
	out := make([]time.Duration, len(marks))
	for li, m := range marks {
		if m < 0 || len(recs) == 0 {
			continue
		}
		// Last record with seq <= m.
		at := sort.Search(len(recs), func(i int) bool { return recs[i].seq > m }) - 1
		if at >= 0 {
			out[li] = recs[at].end
		}
	}
	return out
}

// reduceRun is one step's overlapped all-reduce state: the readiness
// countdown per bucket, the fold goroutines in flight, and the per-replica
// launch-sequence marks the timeline model reads back after the drain. It
// is armed on the trainer before the Phase-1 goroutines start and disarmed
// after they join, so hook callbacks see it without extra synchronization.
type reduceRun struct {
	t       *Trainer
	plan    *BucketPlan
	compute bool
	n       int

	mu       sync.Mutex
	pending  []int
	launched []bool
	wg       sync.WaitGroup

	errMu   sync.Mutex
	foldErr error

	// marks[i][li] is replica i's device launch sequence when layer li's
	// gradient-ready hook fired, -1 before. Row i is written only by
	// replica i's Phase-1 goroutine.
	marks [][]int
}

func newReduceRun(t *Trainer, compute bool) *reduceRun {
	rd := &reduceRun{
		t:        t,
		plan:     t.plan,
		compute:  compute,
		n:        len(t.replicas),
		pending:  make([]int, len(t.plan.buckets)),
		launched: make([]bool, len(t.plan.buckets)),
		marks:    make([][]int, len(t.replicas)),
	}
	for bi, b := range t.plan.buckets {
		rd.pending[bi] = b.pairs * rd.n
	}
	layers := len(t.plan.contrib)
	for i := range rd.marks {
		rd.marks[i] = make([]int, layers)
		for li := range rd.marks[i] {
			rd.marks[i][li] = -1
		}
	}
	return rd
}

// layerDone is the gradient-ready hook body: replica i retired layer li.
// Serialized per replica (per the OnLayerBackward contract), concurrent
// across replicas.
func (rd *reduceRun) layerDone(i, li int) {
	if li >= len(rd.marks[i]) {
		return
	}
	rd.marks[i][li] = rd.t.replicas[i].dev.LaunchSeq()
	if !rd.compute || rd.n <= 1 {
		return
	}
	contrib := rd.plan.contrib[li]
	if len(contrib) == 0 {
		return
	}
	rd.mu.Lock()
	for _, bi := range contrib {
		rd.pending[bi]--
		if rd.pending[bi] == 0 && !rd.launched[bi] {
			rd.launched[bi] = true
			rd.wg.Add(1)
			go func(bi int) {
				defer rd.wg.Done()
				if err := rd.t.foldBucket(&rd.plan.buckets[bi]); err != nil {
					rd.errMu.Lock()
					if rd.foldErr == nil {
						rd.foldErr = err
					}
					rd.errMu.Unlock()
				}
			}(bi)
		}
	}
	rd.mu.Unlock()
}

// finish waits for every launched fold and returns the first fold error.
// Buckets whose countdown never reached zero (a replica failed mid-backward)
// are simply not folded — the caller is about to fail or retry the step, and
// the next attempt's ClearDiffs discards any partial folds.
func (rd *reduceRun) finish() error {
	rd.wg.Wait()
	rd.errMu.Lock()
	defer rd.errMu.Unlock()
	return rd.foldErr
}

// allFolded reports whether every bucket's fold launched (and finish has
// been called, so they also completed).
func (rd *reduceRun) allFolded() bool {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	for bi := range rd.launched {
		if !rd.launched[bi] {
			return false
		}
	}
	return true
}

// commTimes runs the overlap timeline model: per-bucket ready times from
// the recorded retirement marks, a sequential ring over the bus, and the
// split of total ring time into overlapped (hidden under computeTime) and
// exposed (past the compute frontier, charged to StepResult.CommTime).
func (rd *reduceRun) commTimes(computeTime time.Duration) (exposed, overlapped time.Duration) {
	t := rd.t
	if rd.n <= 1 {
		return 0, 0
	}
	retire := make([][]time.Duration, rd.n)
	for i := range t.replicas {
		retire[i] = t.retire[i].retireTimes(rd.marks[i])
	}
	var busy, total time.Duration
	for _, b := range t.plan.buckets {
		var ready time.Duration
		for i := 0; i < rd.n; i++ {
			for _, li := range b.owners {
				if rt := retire[i][li]; rt > ready {
					ready = rt
				}
			}
		}
		ring := t.bus.AllReduceTime(rd.n, b.bytes)
		start := ready
		if busy > start {
			start = busy
		}
		busy = start + ring
		total += ring
	}
	exposed = busy - computeTime
	if exposed < 0 {
		exposed = 0
	}
	if exposed > total {
		exposed = total
	}
	return exposed, total - exposed
}

// foldBucket averages one bucket's gradients over the N batch shards into
// the lead (first surviving) replica's diff buffers and broadcasts the result
// to the other survivors, banded across hostpool workers. Per element: shard
// 0, plus shards 1..N-1 in ascending order, scaled by 1/N last with N the
// *original* replica count — bit-for-bit the serial reference fold, in any
// band order, at any concurrency and on any surviving device set.
func (t *Trainer) foldBucket(b *bucketSpec) error {
	nShards := len(t.owners)
	inv := float32(1) / float32(nShards)
	lead := t.firstSurvivor()
	// A healthy lead still owns just shard 0, whose gradient is already in
	// the accumulator; any other shard 0 has to be copied in first.
	seeded := t.replicas[t.owners[0]] == lead && len(t.shardsOf[t.owners[0]]) == 1
	return t.runBands(len(b.bands), func(task int) {
		bd := b.bands[task]
		acc := lead.params[bd.param].Diff.Data()[bd.lo:bd.hi]
		if !seeded {
			copy(acc, t.shardGrad(0, bd.param)[bd.lo:bd.hi])
		}
		for s := 1; s < nShards; s++ {
			for j, v := range t.shardGrad(s, bd.param)[bd.lo:bd.hi] {
				acc[j] += v
			}
		}
		for j := range acc {
			acc[j] *= inv
		}
		for _, r := range t.replicas {
			if !r.lost && r != lead {
				copy(r.params[bd.param].Diff.Data()[bd.lo:bd.hi], acc)
			}
		}
	})
}

// shardGrad is the fold's shard-source rule: the gradient of shard s for one
// parameter is its owner's live diff buffer when that replica ran only this
// shard (so a healthy step copies nothing), and the stash taken after the
// shard's backward when the owner went on to run another. The accumulator
// (the lead's live buffer) never aliases a source still to be added: a lead
// running several shards reads all of its own from the stash, and a lead
// running one shard is replica 0 with shard 0 — evict hands the lowest
// orphaned shard to the least-loaded, lowest-index survivor, so once replica
// 0 is gone whoever holds shard 0 holds at least two.
func (t *Trainer) shardGrad(s, param int) []float32 {
	if o := t.owners[s]; len(t.shardsOf[o]) == 1 {
		return t.replicas[o].params[param].Diff.Data()
	}
	return t.gradStash[s][param]
}

// runBands executes n band tasks on the trainer's host pool, or serially
// without one. hostpool.Run has the caller participate, so a loaded pool
// degrades to the serial loop rather than blocking.
func (t *Trainer) runBands(n int, fn func(task int)) error {
	if t.pool != nil {
		return t.pool.Run(n, fn)
	}
	for task := 0; task < n; task++ {
		fn(task)
	}
	return nil
}

// layerRetired is the per-replica gradient-ready hook registered at trainer
// build. With no reducer armed (the blocking arm, degraded steps) it is a
// no-op.
func (t *Trainer) layerRetired(i, li int) {
	if rd := t.red; rd != nil {
		rd.layerDone(i, li)
	}
}

// CommStats reports the gradient all-reduce totals accumulated over this
// trainer's steps (works with or without the GLP framework attached).
type CommStats struct {
	Steps          int64         // steps that performed an all-reduce
	Buckets        int64         // gradient buckets reduced
	Overlapped     time.Duration // modeled ring time hidden under backward
	Exposed        time.Duration // modeled ring time on the critical path
	Blocking       bool          // legacy blocking monolith selected
	BucketBytes    int64         // plan's bucket size cap
	BucketsPerStep float64
}

// CommStats returns the all-reduce ledger for this trainer.
func (t *Trainer) CommStats() CommStats {
	s := CommStats{
		Steps:       t.commSteps,
		Buckets:     t.commBuckets,
		Overlapped:  t.commOverlapped,
		Exposed:     t.commExposed,
		Blocking:    t.blocking,
		BucketBytes: t.plan.bucketBytes,
	}
	if s.Steps > 0 {
		s.BucketsPerStep = float64(s.Buckets) / float64(s.Steps)
	}
	return s
}

// accountComm folds one step's comm split into the trainer totals.
func (t *Trainer) accountComm(buckets int, overlapped, exposed time.Duration) {
	t.commSteps++
	t.commBuckets += int64(buckets)
	t.commOverlapped += overlapped
	t.commExposed += exposed
}

// checkPlanCoverage validates a plan against the net it was built from:
// every parameter in exactly one bucket, band coverage exact, contribution
// counts consistent. Called once at trainer build — a failed invariant here
// is a bug, and failing loudly beats silently dropping gradients.
func checkPlanCoverage(plan *BucketPlan, params []*dnn.Blob) error {
	seen := make([]int, len(params))
	for _, b := range plan.buckets {
		for _, pi := range b.params {
			if pi < 0 || pi >= len(params) {
				return fmt.Errorf("parallel: bucket plan references param %d of %d", pi, len(params))
			}
			seen[pi]++
		}
	}
	for pi, c := range seen {
		if c != 1 {
			return fmt.Errorf("parallel: bucket plan covers param %d %d times", pi, c)
		}
	}
	return nil
}
