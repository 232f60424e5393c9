package parallel

import (
	"errors"
	"fmt"

	"repro/internal/dnn"
)

// Elastic device-loss tolerance.
//
// A permanently lost device (simgpu's DeviceLost fault class,
// core.IsDeviceLost) cannot be retried or degraded around — the replica it
// hosted is evicted and its shard of the global batch is reassigned to
// survivors. The elastic numeric contract is that global batch composition,
// gradient-fold order, and RNG consumption are properties of the *plan*
// (the original replica count), not of the live device count:
//
//   - The global batch stays exactly the original N shards; a survivor that
//     owns k shards processes them sequentially, in ascending shard order,
//     from host-side stashes of the fed inputs.
//   - Every replica context was built from the same seed, so all replica
//     RNG streams are identical and advance in lockstep (one step's draws
//     per iteration). A survivor rewinds its RNG to the step's starting
//     position before each extra shard, so each shard sees exactly the
//     draws its healthy owner would have seen and the stream still advances
//     by one step per iteration.
//   - Per-shard gradients fold in ascending shard order — the same float
//     additions, in the same order, as the healthy fold over replicas
//     0..N-1 — then scale by 1/N with N the original replica count. A
//     survivor running several shards stashes each one's gradient before
//     the next pass overwrites its diff buffers (foldBucket's shard-source
//     rule).
//
// Together these make post-eviction training bitwise identical to the
// healthy N-device run, which the device-loss chaos soak asserts.

// replicaError attributes a step failure to the replica it happened on, so
// the elastic retry loop knows which device to evict. It preserves the
// wrapped error's message and unwrap chain.
type replicaError struct {
	replica int
	err     error
}

func (e *replicaError) Error() string { return e.err.Error() }
func (e *replicaError) Unwrap() error { return e.err }

// failedReplica extracts the replica index a step error is attributed to.
func failedReplica(err error) (int, bool) {
	var re *replicaError
	if errors.As(err, &re) {
		return re.replica, true
	}
	return 0, false
}

// EvictionEvent records one replica eviction for logs and tests.
type EvictionEvent struct {
	Iter    int    // iteration the loss was detected at
	Replica int    // evicted replica index
	Device  string // its device name
	Shards  []int  // shards reassigned away from it
	To      []int  // new owner per reassigned shard
}

func (e EvictionEvent) String() string {
	return fmt.Sprintf("iter %d: replica %d (%s) lost — shards %v reassigned to replicas %v",
		e.Iter, e.Replica, e.Device, e.Shards, e.To)
}

// Evictions returns how many replicas were evicted after device loss.
func (t *Trainer) Evictions() int { return t.evictions }

// ShardMoves returns how many batch shards were reassigned to survivors.
func (t *Trainer) ShardMoves() int { return t.shardMoves }

// Resumes returns how many times this trainer was restored from a durable
// on-disk checkpoint.
func (t *Trainer) Resumes() int { return t.resumes }

// EvictionEvents returns the evictions so far, oldest first.
func (t *Trainer) EvictionEvents() []EvictionEvent {
	return append([]EvictionEvent(nil), t.events...)
}

// Survivors returns the number of replicas still holding a live device.
func (t *Trainer) Survivors() int { return t.survivorCount() }

// ShardOwners returns the current shard→replica assignment (identity until
// the first eviction).
func (t *Trainer) ShardOwners() []int { return append([]int(nil), t.owners...) }

// ActiveNet returns the first surviving replica's network — the canonical
// parameter state (all survivors stay bitwise identical).
func (t *Trainer) ActiveNet() *dnn.Net { return t.firstSurvivor().net }

func (t *Trainer) survivorCount() int {
	n := 0
	for _, r := range t.replicas {
		if !r.lost {
			n++
		}
	}
	return n
}

// firstSurvivor returns the lowest-index replica still holding a live
// device (never nil: evict refuses to remove the last survivor).
func (t *Trainer) firstSurvivor() *replica {
	for _, r := range t.replicas {
		if !r.lost {
			return r
		}
	}
	return nil
}

// indexShards rebuilds shardsOf from owners; shards ascend because owners is
// walked in shard order.
func (t *Trainer) indexShards() {
	t.shardsOf = make([][]int, len(t.owners))
	for s, o := range t.owners {
		t.shardsOf[o] = append(t.shardsOf[o], s)
	}
}

// heir picks the survivor to inherit one shard: fewest owned shards,
// ties to the lowest replica index — deterministic, so equal runs make
// equal reassignments.
func (t *Trainer) heir() int {
	counts := make([]int, len(t.replicas))
	for _, o := range t.owners {
		counts[o]++
	}
	best := -1
	for i, r := range t.replicas {
		if r.lost {
			continue
		}
		if best < 0 || counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// evict permanently removes replica idx after device loss and reassigns
// its shards to survivors. The caller then restores the step's checkpoint
// and re-runs the iteration on the reduced device set.
func (t *Trainer) evict(idx int) error {
	if idx < 0 || idx >= len(t.replicas) || t.replicas[idx].lost {
		return fmt.Errorf("parallel: evict: replica %d is not active", idx)
	}
	if t.survivorCount() <= 1 {
		return fmt.Errorf("parallel: replica %d lost its device and no survivor remains", idx)
	}
	// Stash every shard's inputs from its current owner before ownership
	// moves: the heir must re-run the lost replica's shard with the exact
	// bytes it was fed this step.
	t.ensureStash()
	t.replicas[idx].lost = true
	ev := EvictionEvent{Iter: t.iter, Replica: idx, Device: t.replicas[idx].dev.Name()}
	for s, o := range t.owners {
		if o != idx {
			continue
		}
		h := t.heir()
		t.owners[s] = h
		ev.Shards = append(ev.Shards, s)
		ev.To = append(ev.To, h)
	}
	t.indexShards()
	t.evictions++
	t.shardMoves += len(ev.Shards)
	t.events = append(t.events, ev)
	return nil
}

// ensureStash builds the per-shard input stash from the current owners'
// nets (and the empty gradient stash beside it). A no-op once built — from
// then on the Step feed loop refreshes it after every feed.
func (t *Trainer) ensureStash() {
	if t.stash != nil {
		return
	}
	t.inputNames = t.replicas[0].net.InputNames()
	t.stash = make([][][]float32, len(t.owners))
	t.gradStash = make([][][]float32, len(t.owners))
	for s, o := range t.owners {
		t.stashShard(s, t.replicas[o].net)
	}
}

// stashShard copies net's input blobs (this step's shard s) into the stash.
func (t *Trainer) stashShard(s int, net *dnn.Net) {
	dst := t.stash[s]
	if dst == nil {
		dst = make([][]float32, len(t.inputNames))
		t.stash[s] = dst
	}
	for bi, name := range t.inputNames {
		src := net.Blob(name).Data.Data()
		if dst[bi] == nil {
			dst[bi] = make([]float32, len(src))
		}
		copy(dst[bi], src)
	}
}

// loadShard copies shard s's stashed inputs into net's input blobs. Host
// copies only: the shard was already staged/uploaded once by the feeder,
// and modeled H2D time is not part of the bit-identity contract.
func (t *Trainer) loadShard(s int, net *dnn.Net) {
	for bi, name := range t.inputNames {
		copy(net.Blob(name).Data.Data(), t.stash[s][bi])
	}
}

// stashGrads copies r's parameter gradients as shard s's contribution to
// the fold (the owner's diff buffers are overwritten by its next shard).
func (t *Trainer) stashGrads(s int, r *replica) {
	dst := t.gradStash[s]
	if dst == nil {
		dst = make([][]float32, len(r.params))
		t.gradStash[s] = dst
	}
	for pi, p := range r.params {
		g := p.Diff.Data()
		if dst[pi] == nil {
			dst[pi] = make([]float32, len(g))
		}
		copy(dst[pi], g)
	}
}
