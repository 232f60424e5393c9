package parallel

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// The GLPC decoder against hostile input: a crashed run feeds its
// checkpoint back through PeekCheckpoint (the -resume pre-flight and
// glp4nn-info -checkpoint) before anything is built, so no byte sequence may
// panic it, exhaust memory, or get a plan past it that InstallPlan cannot
// honour.

// encodeGLPC frames decoded fields as a version-ver GLPC file — the
// decoder's inverse, for hand-built and rewritten files.
func encodeGLPC(ver uint32, info DurableInfo, rng []dnn.RNGState, ok []bool, solver []byte) []byte {
	var p bytes.Buffer
	put := func(v any) { binary.Write(&p, binary.LittleEndian, v) }
	put(uint32(info.Iter))
	put(uint64(info.FeedSteps))
	put(uint32(len(rng)))
	for i, st := range rng {
		okByte := uint8(0)
		if ok[i] {
			okByte = 1
		}
		put(okByte)
		put(st.Seed)
		put(st.Steps)
	}
	for _, plans := range info.Plans {
		put(uint32(len(plans)))
		for _, pl := range plans {
			put(uint32(len(pl.Key)))
			p.WriteString(pl.Key)
			put(uint32(pl.Streams))
			flags := uint8(0)
			if pl.Serial {
				flags |= flagSerial
			}
			if pl.Fallback {
				flags |= flagFallback
			}
			put(flags)
			if ver >= 2 {
				put(int64(pl.SolvedFrom))
			}
		}
	}
	p.Write(solver)
	var f bytes.Buffer
	f.WriteString(durableMagic)
	binary.Write(&f, binary.LittleEndian, ver)
	binary.Write(&f, binary.LittleEndian, uint64(p.Len()))
	binary.Write(&f, binary.LittleEndian, crc32.ChecksumIEEE(p.Bytes()))
	f.Write(p.Bytes())
	return f.Bytes()
}

// hugeDeclaredLength is the whole 20-byte file: magic, version 2, a
// declared payload of 2³³−1 bytes (just inside maxDurableBytes) and a CRC.
func hugeDeclaredLength() []byte {
	b := []byte(durableMagic)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, 1<<33-1)
	return binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
}

// onePlanFile is a CRC-valid v2 file of one replica holding one plan.
func onePlanFile(streams int, solvedFrom int64) []byte {
	info := DurableInfo{Iter: 3, FeedSteps: 3, Plans: [][]PlanInfo{{
		{Key: "conv1/fwd", Streams: streams, SolvedFrom: time.Duration(solvedFrom)},
	}}}
	return encodeGLPC(2, info, []dnn.RNGState{{Seed: 1}}, []bool{true}, nil)
}

// TestPeekRefusesHugeDeclaredLength: a header declaring 8 GiB over a
// 20-byte file is refused as truncated, allocating what is present rather
// than what is declared.
func TestPeekRefusesHugeDeclaredLength(t *testing.T) {
	file := hugeDeclaredLength()
	if len(file) != 20 {
		t.Fatalf("fixture is %d bytes, want 20", len(file))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := PeekCheckpoint(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error = %v, want a truncation refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("decoding 20 bytes allocated %d bytes", grew)
	}
}

// TestPeekRefusesPlanOutOfRange: a CRC-valid plan whose width no simulated
// device can run, or whose solved-from timing is negative, is corruption.
func TestPeekRefusesPlanOutOfRange(t *testing.T) {
	if _, err := PeekCheckpoint(bytes.NewReader(onePlanFile(maxPlanStreams, 0))); err != nil {
		t.Fatalf("widest legal plan refused: %v", err)
	}
	cases := []struct {
		name       string
		streams    int
		solvedFrom int64
	}{
		{"zero-width", 0, 1000},
		{"wider-than-any-device", maxPlanStreams + 1, 1000},
		{"all-ones-width", 0xFFFFFFFF, 1000},
		{"negative-solved-from", 4, -5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := PeekCheckpoint(bytes.NewReader(onePlanFile(c.streams, c.solvedFrom)))
			if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
				t.Fatalf("error = %v, want a corrupt-checkpoint refusal", err)
			}
		})
	}
}

// FuzzCheckpointDecode runs PeekCheckpoint on arbitrary bytes: it never
// panics, and every file it accepts carries only plans InstallPlan can
// honour. Seeds: a real v2 file from a two-replica real-math CIFAR10 GLP
// trainer (a timing-only one never fills the weights a checkpoint saves),
// the same file rewritten as v1, and both hostile inputs above.
func FuzzCheckpointDecode(f *testing.F) {
	w, err := models.Get("CIFAR10")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := NewTrainer(simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100), func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, 2, 1)
	}, Config{Solver: chaosSolver(), UseGLP: true, Compute: true, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Step(nil); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	err = tr.WriteCheckpoint(&buf)
	tr.Close()
	if err != nil {
		f.Fatal(err)
	}
	v2 := buf.Bytes()
	payload, ver, err := readDurablePayload(bytes.NewReader(v2))
	if err != nil {
		f.Fatal(err)
	}
	info, rng, ok, solver, err := parseDurablePayload(payload, ver)
	if err != nil {
		f.Fatal(err)
	}
	if len(info.Plans[0]) == 0 {
		f.Fatal("the real file carries no plan")
	}
	if !bytes.Equal(encodeGLPC(2, info, rng, ok, solver), v2) {
		f.Fatal("encodeGLPC does not reproduce the writer's bytes")
	}
	v1 := encodeGLPC(1, info, rng, ok, solver)
	if _, err := PeekCheckpoint(bytes.NewReader(v1)); err != nil {
		f.Fatalf("v1 rewrite refused: %v", err)
	}

	f.Add(v2)
	f.Add(v1)
	f.Add(hugeDeclaredLength())
	f.Add(onePlanFile(0xFFFFFFFF, -5))
	f.Fuzz(func(t *testing.T, b []byte) {
		info, err := PeekCheckpoint(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, plans := range info.Plans {
			for _, p := range plans {
				if p.Streams < 1 || p.Streams > maxPlanStreams || p.SolvedFrom < 0 {
					t.Fatalf("accepted plan out of range: %+v", p)
				}
			}
		}
	})
}
