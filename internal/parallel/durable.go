package parallel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// Durable checkpoints: the trainer's complete training state in one
// crash-safe on-disk artifact, so a killed process resumes bit-for-bit.
//
// The format wraps the dnn snapshot codec (GLPW weights + GLPS solver
// state) in a CRC32-guarded header and adds what an in-memory Checkpoint
// carries beyond solver state — per-replica RNG stream positions and the
// input-iterator replay count:
//
//	magic "GLPC" | version u32 | payload length u64 | CRC32(payload) u32
//	payload:
//	    iter u32 | feedSteps u64
//	    replica count u32
//	    per replica: ok u8 | rng seed i64 | rng steps i64
//	    per replica: plan count u32
//	        per plan: key (u32 len + bytes) | streams u32 | flags u8
//	                  (bit 0 = serial-demoted, bit 1 = fallback)
//	                  | solvedFrom i64 ns (version ≥ 2 only)
//	    solver snapshot (GLPW … GLPS …) of the first surviving replica
//
// Version 2 adds each plan's solved-from timing (Plan.SolvedFrom) so a
// resumed adaptive run still tells a lost profile from a real one;
// version-1 files are still read, with solvedFrom defaulting to 0, which
// makes a v1 plan provisional only for layers that launch kernels: a
// resumed adaptive run re-profiles those once, while pure-host layers keep
// their plans. Every plan's width must lie in [1, maxPlanStreams] and its
// solvedFrom must not be negative.
//
// The plan tables exist because the planned per-layer stream width is part
// of the numeric contract (layers index per-chain scratch and fold
// gradient partials by width): a resumed run must dispatch its first
// iteration at the widths the checkpointed run was using, not re-profile
// at width 1 and diverge by an ulp.
//
// Everything is little-endian. The header is validated in order — magic,
// version, length, checksum — so each corruption mode (wrong file, future
// version, truncated tail, flipped byte) gets its own clear error and a
// -resume refuses to start from it. Files are written via
// dnn.WriteFileAtomic (temp + fsync + rename): a crash mid-write leaves
// the previous checkpoint intact, never a torn one.

const (
	durableMagic   = "GLPC"
	durableVersion = 2
	// maxDurableBytes bounds the declared payload length before any
	// allocation: a corrupt header must fail cleanly, not OOM.
	maxDurableBytes = int64(1) << 33
)

// maxPlanStreams bounds a checkpointed plan's width: the largest
// MaxConcurrentKernels (Eq. 6's C) in simgpu's architecture table.
var maxPlanStreams = func() int {
	c := 1
	for _, a := range simgpu.Architectures {
		c = max(c, a.MaxConcurrentKernels)
	}
	return c
}()

// DurableInfo describes a durable checkpoint.
type DurableInfo struct {
	// Iter is the completed-iteration count at capture.
	Iter int
	// FeedSteps is how many times the input feeders had been advanced —
	// the replay count a resuming caller must drive its (deterministic)
	// feeders through to restore the input iterator position.
	FeedSteps int64
	// Plans is each replica's cached concurrency-plan table at capture,
	// sorted by key (empty for non-GLP runs). glp4nn-info -plans renders
	// it; ReadCheckpoint reinstalls it.
	Plans [][]PlanInfo
}

// PlanInfo is one checkpointed plan — exactly the fields kernel dispatch
// (and therefore trained bits) depends on. On disk Serial and Fallback are
// the bits of one flag byte.
type PlanInfo struct {
	Key        string
	Streams    int
	Serial     bool
	Fallback   bool
	SolvedFrom time.Duration // version ≥ 2, zero for v1 files
}

const (
	flagSerial   = 1
	flagFallback = 2
)

// WriteCheckpoint serializes the trainer's training state (see the format
// above). The trainer feeds once per Step, so the feeder replay count
// equals the iteration counter.
func (t *Trainer) WriteCheckpoint(w io.Writer) error {
	var payload bytes.Buffer
	if err := binary.Write(&payload, binary.LittleEndian, uint32(t.iter)); err != nil {
		return err
	}
	if err := binary.Write(&payload, binary.LittleEndian, uint64(t.iter)); err != nil {
		return err
	}
	if err := binary.Write(&payload, binary.LittleEndian, uint32(len(t.replicas))); err != nil {
		return err
	}
	for _, r := range t.replicas {
		var st dnn.RNGState
		var ok bool
		if !r.lost {
			st, ok = r.ctx.RNGState()
		}
		okByte := uint8(0)
		if ok {
			okByte = 1
		}
		if err := binary.Write(&payload, binary.LittleEndian, okByte); err != nil {
			return err
		}
		if err := binary.Write(&payload, binary.LittleEndian, st.Seed); err != nil {
			return err
		}
		if err := binary.Write(&payload, binary.LittleEndian, st.Steps); err != nil {
			return err
		}
	}
	for _, r := range t.replicas {
		var plans []*core.Plan // sorted by key
		if t.fw != nil && !r.lost {
			plans = t.fw.Runtime(r.dev).FinalizePlans()
		}
		if err := binary.Write(&payload, binary.LittleEndian, uint32(len(plans))); err != nil {
			return err
		}
		for _, p := range plans {
			if err := binary.Write(&payload, binary.LittleEndian, uint32(len(p.Key))); err != nil {
				return err
			}
			if _, err := io.WriteString(&payload, p.Key); err != nil {
				return err
			}
			if err := binary.Write(&payload, binary.LittleEndian, uint32(p.Streams)); err != nil {
				return err
			}
			flags := uint8(0)
			if p.Serial {
				flags |= flagSerial
			}
			if p.Fallback {
				flags |= flagFallback
			}
			if err := binary.Write(&payload, binary.LittleEndian, flags); err != nil {
				return err
			}
			if err := binary.Write(&payload, binary.LittleEndian, int64(p.SolvedFrom)); err != nil {
				return err
			}
		}
	}
	if err := t.firstSurvivor().solver.Snapshot(&payload); err != nil {
		return err
	}

	if _, err := io.WriteString(w, durableMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(durableVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(payload.Len())); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload.Bytes())); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// WriteCheckpointFile writes the checkpoint to path atomically.
func (t *Trainer) WriteCheckpointFile(path string) error {
	return dnn.WriteFileAtomic(path, t.WriteCheckpoint)
}

// readDurablePayload validates the GLPC header and returns the
// checksum-verified payload bytes plus the file's format version.
func readDurablePayload(r io.Reader) ([]byte, uint32, error) {
	magic := make([]byte, len(durableMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, 0, fmt.Errorf("parallel: reading checkpoint header: %w", err)
	}
	if string(magic) != durableMagic {
		return nil, 0, fmt.Errorf("parallel: not a checkpoint file (magic %q, want %q)", magic, durableMagic)
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, 0, fmt.Errorf("parallel: reading checkpoint version: %w", err)
	}
	if ver < 1 || ver > durableVersion {
		return nil, 0, fmt.Errorf("parallel: unsupported checkpoint version %d (this build reads version %d)", ver, durableVersion)
	}
	var plen uint64
	if err := binary.Read(r, binary.LittleEndian, &plen); err != nil {
		return nil, 0, fmt.Errorf("parallel: reading checkpoint length: %w", err)
	}
	if int64(plen) > maxDurableBytes {
		return nil, 0, fmt.Errorf("parallel: corrupt checkpoint: declared payload %d bytes", plen)
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, 0, fmt.Errorf("parallel: reading checkpoint checksum: %w", err)
	}
	// Read through a LimitReader rather than allocating plen up front, so
	// memory follows the bytes actually present: a 20-byte file declaring
	// 8 GiB is refused as truncated, not allowed to exhaust memory.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err == nil && uint64(len(payload)) < plen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("parallel: checkpoint truncated (want %d payload bytes): %w", plen, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, fmt.Errorf("parallel: checkpoint corrupt: CRC32 mismatch (file %08x, computed %08x)", sum, got)
	}
	// The declared length must account for the whole file: bytes after the
	// payload mean a torn or tampered write the CRC cannot vouch for.
	var extra [1]byte
	if _, err := io.ReadFull(r, extra[:]); err != io.EOF {
		return nil, 0, fmt.Errorf("parallel: checkpoint corrupt: trailing bytes after declared payload")
	}
	return payload, ver, nil
}

// PeekCheckpoint validates a durable checkpoint's header, checksum, and
// fixed fields without touching any trainer — what a CLI uses to refuse a
// bad -resume before building devices.
func PeekCheckpoint(r io.Reader) (DurableInfo, error) {
	payload, ver, err := readDurablePayload(r)
	if err != nil {
		return DurableInfo{}, err
	}
	info, _, _, _, err := parseDurablePayload(payload, ver)
	return info, err
}

// PeekCheckpointFile is PeekCheckpoint on a file.
func PeekCheckpointFile(path string) (DurableInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return DurableInfo{}, err
	}
	defer f.Close()
	return PeekCheckpoint(f)
}

func parseDurablePayload(payload []byte, ver uint32) (DurableInfo, []dnn.RNGState, []bool, []byte, error) {
	fail := func(err error) (DurableInfo, []dnn.RNGState, []bool, []byte, error) {
		return DurableInfo{}, nil, nil, nil, err
	}
	br := bytes.NewReader(payload)
	var iter uint32
	var feedSteps uint64
	var nrep uint32
	if err := binary.Read(br, binary.LittleEndian, &iter); err != nil {
		return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
	}
	if err := binary.Read(br, binary.LittleEndian, &feedSteps); err != nil {
		return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
	}
	if err := binary.Read(br, binary.LittleEndian, &nrep); err != nil {
		return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
	}
	if nrep == 0 || nrep > 1<<16 {
		return fail(fmt.Errorf("parallel: corrupt checkpoint: replica count %d", nrep))
	}
	rng := make([]dnn.RNGState, nrep)
	ok := make([]bool, nrep)
	for i := range rng {
		var okByte uint8
		if err := binary.Read(br, binary.LittleEndian, &okByte); err != nil {
			return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
		}
		ok[i] = okByte != 0
		if err := binary.Read(br, binary.LittleEndian, &rng[i].Seed); err != nil {
			return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
		}
		if err := binary.Read(br, binary.LittleEndian, &rng[i].Steps); err != nil {
			return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
		}
	}
	plans := make([][]PlanInfo, nrep)
	for i := range plans {
		var nplan uint32
		if err := binary.Read(br, binary.LittleEndian, &nplan); err != nil {
			return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
		}
		if nplan > 1<<20 {
			return fail(fmt.Errorf("parallel: corrupt checkpoint: plan count %d", nplan))
		}
		for j := uint32(0); j < nplan; j++ {
			var klen uint32
			if err := binary.Read(br, binary.LittleEndian, &klen); err != nil {
				return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
			}
			if klen > 1<<20 {
				return fail(fmt.Errorf("parallel: corrupt checkpoint: plan key length %d", klen))
			}
			key := make([]byte, klen)
			if _, err := io.ReadFull(br, key); err != nil {
				return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
			}
			var streams uint32
			var flags uint8
			var solvedFrom int64 // ns
			if err := binary.Read(br, binary.LittleEndian, &streams); err != nil {
				return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
			}
			if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
				return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
			}
			if ver >= 2 {
				if err := binary.Read(br, binary.LittleEndian, &solvedFrom); err != nil {
					return fail(fmt.Errorf("parallel: checkpoint payload truncated: %w", err))
				}
			}
			// InstallPlan sizes the stream pool to the width: a width no
			// simulated device can run is corruption, not a plan.
			if streams == 0 || streams > uint32(maxPlanStreams) || solvedFrom < 0 {
				return fail(fmt.Errorf("parallel: corrupt checkpoint: plan %q width %d solved from %dns", key, streams, solvedFrom))
			}
			plans[i] = append(plans[i], PlanInfo{
				Key:        string(key),
				Streams:    int(streams),
				Serial:     flags&flagSerial != 0,
				Fallback:   flags&flagFallback != 0,
				SolvedFrom: time.Duration(solvedFrom),
			})
		}
	}
	solverBytes := payload[len(payload)-br.Len():]
	return DurableInfo{Iter: int(iter), FeedSteps: int64(feedSteps), Plans: plans}, rng, ok, solverBytes, nil
}

// ReadCheckpoint restores the trainer from a durable checkpoint: every
// surviving replica gets the stored parameters, momentum history, solver
// iteration, and RNG position. The checkpoint must have been taken from a
// trainer with the same replica count. The caller is responsible for
// replaying its feeders FeedSteps times (they are deterministic) before
// the next Step.
func (t *Trainer) ReadCheckpoint(r io.Reader) (DurableInfo, error) {
	payload, ver, err := readDurablePayload(r)
	if err != nil {
		return DurableInfo{}, err
	}
	info, rng, ok, solverBytes, err := parseDurablePayload(payload, ver)
	if err != nil {
		return DurableInfo{}, err
	}
	if len(rng) != len(t.replicas) {
		return DurableInfo{}, fmt.Errorf("parallel: checkpoint has %d replicas, trainer has %d",
			len(rng), len(t.replicas))
	}
	// All live replica RNG streams advance in lockstep, so any stored
	// position stands in for a replica whose own slot is missing (it was
	// already evicted when the checkpoint was taken).
	fallback := -1
	for i, o := range ok {
		if o {
			fallback = i
			break
		}
	}
	if t.fw != nil {
		for i, r := range t.replicas {
			if r.lost {
				continue
			}
			rt := t.fw.Runtime(r.dev)
			rt.ResetProfiling()
			// Seed the analyzer cache with the checkpointed run's plans: the
			// resumed first iteration must dispatch at the same per-layer
			// widths, not open a fresh profiling window at width 1.
			for _, p := range info.Plans[i] {
				rt.InstallPlan(p.Key, p.Streams, p.Serial, p.Fallback, p.SolvedFrom)
			}
		}
	}
	for i, rep := range t.replicas {
		if rep.lost {
			continue
		}
		if err := rep.solver.Restore(bytes.NewReader(solverBytes)); err != nil {
			return DurableInfo{}, fmt.Errorf("parallel: restoring replica %d: %w", i, err)
		}
		rep.solver.SetIter(info.Iter)
		switch {
		case ok[i]:
			rep.ctx.RestoreRNG(rng[i])
		case fallback >= 0:
			rep.ctx.RestoreRNG(rng[fallback])
		}
	}
	for _, p := range t.prefetch {
		if p != nil {
			p.Rollback()
		}
	}
	t.iter = info.Iter
	t.resumes++
	return info, nil
}

// RestoreCheckpointFile is ReadCheckpoint on a file.
func (t *Trainer) RestoreCheckpointFile(path string) (DurableInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return DurableInfo{}, err
	}
	defer f.Close()
	return t.ReadCheckpoint(f)
}
