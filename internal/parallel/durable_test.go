package parallel

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// Durable checkpoint suite: a run killed after writing a checkpoint and
// resumed from it must finish bit-for-bit identical to the uninterrupted
// run, and every corruption mode of the on-disk artifact must be refused
// with a clear error.

// newElasticPair builds a fresh two-P100 trainer for workload w.
func newElasticPair(t *testing.T, w *models.Workload, batch int) *Trainer {
	t.Helper()
	machine := simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100)
	tr, err := NewTrainer(machine, func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 5)
	}, Config{
		Solver:   chaosSolver(),
		UseGLP:   true,
		Compute:  true,
		Seed:     5,
		HostPool: hostpool.New(4),
		Elastic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainerParams(tr *Trainer) [][]float32 {
	var ps [][]float32
	for _, p := range tr.ActiveNet().Params() {
		ps = append(ps, append([]float32(nil), p.Data.Data()...))
	}
	return ps
}

// replayFeeds advances a fresh feeder to the checkpointed input-iterator
// position: the feeders are deterministic, so driving them through the
// same number of draws reproduces the stream bit for bit.
func replayFeeds(t *testing.T, tr *Trainer, feed FeedFunc, steps int64) {
	t.Helper()
	for k := int64(0); k < steps; k++ {
		for s := 0; s < tr.Replicas(); s++ {
			if err := feed(s, tr.Net(s)); err != nil {
				t.Fatalf("replaying feed step %d shard %d: %v", k, s, err)
			}
		}
	}
}

// TestCrashResumeSoakBitIdentical is the headline durability soak: on all
// four paper workloads, a run killed mid-training and resumed from its
// durable checkpoint — fresh process state, fresh devices, fresh feeders
// replayed to position — finishes with parameters bitwise identical to the
// uninterrupted run, with a nonzero resume counter on the trainer.
func TestCrashResumeSoakBitIdentical(t *testing.T) {
	cases := []struct {
		name         string
		batch, steps int
	}{
		{"CIFAR10", 4, 3},
		{"Siamese", 4, 3},
		{"CaffeNet", 2, 2}, // ~6 GFLOP per image on the host: keep it small
		{"GoogLeNet", 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, err := models.Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "checkpoint.glpc")
			kill := c.steps / 2
			if kill < 1 {
				kill = 1
			}

			// Uninterrupted reference run.
			ref := newElasticPair(t, w, c.batch)
			feed := workloadFeeder(w, c.batch, 1000)
			for i := 0; i < c.steps; i++ {
				if _, err := ref.Step(feed); err != nil {
					t.Fatal(err)
				}
			}
			want := trainerParams(ref)
			ref.Close()

			// Run to the kill point, persist, and abandon the process
			// state — trainer, devices, feeders all die with it.
			victim := newElasticPair(t, w, c.batch)
			vfeed := workloadFeeder(w, c.batch, 1000)
			for i := 0; i < kill; i++ {
				if _, err := victim.Step(vfeed); err != nil {
					t.Fatal(err)
				}
			}
			if err := victim.WriteCheckpointFile(path); err != nil {
				t.Fatal(err)
			}
			victim.Close()

			// Resume: everything rebuilt from scratch, state from disk.
			resumed := newElasticPair(t, w, c.batch)
			defer resumed.Close()
			info, err := resumed.RestoreCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Iter != kill || info.FeedSteps != int64(kill) {
				t.Fatalf("checkpoint info = %+v, want iter=feedSteps=%d", info, kill)
			}
			rfeed := workloadFeeder(w, c.batch, 1000)
			replayFeeds(t, resumed, rfeed, info.FeedSteps)
			for i := kill; i < c.steps; i++ {
				if _, err := resumed.Step(rfeed); err != nil {
					t.Fatal(err)
				}
			}
			if resumed.Resumes() != 1 {
				t.Fatalf("resume counter = %d, want 1", resumed.Resumes())
			}
			assertBitwiseEqual(t, c.name, trainerParams(resumed), want)
			t.Logf("%s: killed after %d/%d steps, resumed bit-identical", c.name, kill, c.steps)
		})
	}
}

// TestDurableCheckpointAfterEviction: a checkpoint taken from a degraded
// trainer (replica 0 evicted) restores into a fresh full-width trainer —
// the missing RNG slot falls back to a survivor's position — and training
// continues bit-identical to the healthy run.
func TestDurableCheckpointAfterEviction(t *testing.T) {
	const steps, kill = 5, 2
	path := filepath.Join(t.TempDir(), "degraded.glpc")

	newSmall := func(loseDev0 bool) *Trainer {
		devs := make([]*simgpu.Device, 2)
		for i := range devs {
			var opts []simgpu.Option
			if loseDev0 && i == 0 {
				opts = append(opts, simgpu.WithInjector(
					simgpu.FaultPlan{Seed: 3, DeviceLossAfter: 25}.Injector()))
			}
			dev, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = dev
		}
		tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), smallBuilder(4, 3), Config{
			Solver: chaosSolver(), Compute: true, Seed: 3, Elastic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	ref := newSmall(false)
	feed := shardFeeder(4, 11)
	for i := 0; i < steps; i++ {
		if _, err := ref.Step(feed); err != nil {
			t.Fatal(err)
		}
	}
	want := trainerParams(ref)
	ref.Close()

	victim := newSmall(true)
	vfeed := shardFeeder(4, 11)
	for i := 0; i < kill; i++ {
		if _, err := victim.Step(vfeed); err != nil {
			t.Fatal(err)
		}
	}
	if victim.Evictions() != 1 {
		t.Fatalf("victim evictions = %d, want 1 (loss point must land before the kill)", victim.Evictions())
	}
	if err := victim.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	victim.Close()

	resumed := newSmall(false)
	defer resumed.Close()
	info, err := resumed.RestoreCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rfeed := shardFeeder(4, 11)
	replayFeeds(t, resumed, rfeed, info.FeedSteps)
	for i := kill; i < steps; i++ {
		if _, err := resumed.Step(rfeed); err != nil {
			t.Fatal(err)
		}
	}
	assertBitwiseEqual(t, "degraded-resume", trainerParams(resumed), want)
}

// TestCheckpointCorruptionRefused: each corruption mode of the on-disk
// format — wrong magic, future version, truncated tail, flipped payload
// byte — is detected and named, and restoring refuses.
func TestCheckpointCorruptionRefused(t *testing.T) {
	tr := newSmallTrainer(t)
	defer tr.Close()
	feed := shardFeeder(4, 11)
	for i := 0; i < 2; i++ {
		if _, err := tr.Step(feed); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := PeekCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"wrong-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOPE")
			return c
		}, "not a checkpoint file"},
		{"future-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99 // version u32 follows the 4-byte magic
			return c
		}, "unsupported checkpoint version"},
		{"truncated-tail", func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)-7]...)
		}, "truncated"},
		{"flipped-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40 // inside the payload: caught by CRC32
			return c
		}, "CRC32 mismatch"},
		{"trailing-garbage", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			return append(c, 0xDE, 0xAD) // beyond the declared payload length
		}, "trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.corrupt(good)
			if _, err := PeekCheckpoint(bytes.NewReader(bad)); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the corruption (want %q)", err, c.want)
			}
			before := trainerParams(tr)
			if _, err := tr.ReadCheckpoint(bytes.NewReader(bad)); err == nil {
				t.Fatal("restore accepted a corrupt checkpoint")
			}
			// A refused restore must not have touched training state.
			assertBitwiseEqual(t, "untouched", trainerParams(tr), before)
		})
	}
}

// TestCheckpointReplicaCountMismatch: resuming on a machine with a
// different device count is refused (the plan width is the numeric
// contract).
func TestCheckpointReplicaCountMismatch(t *testing.T) {
	tr := newSmallTrainer(t)
	defer tr.Close()
	if _, err := tr.Step(shardFeeder(4, 11)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	solo, err := NewTrainer(simgpu.NewMachine(simgpu.TeslaP100), smallBuilder(4, 3), Config{
		Solver: chaosSolver(), Compute: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if _, err := solo.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("replica-count mismatch accepted")
	} else if !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("error %q does not explain the mismatch", err)
	}
}

// TestWriteFileAtomicKeepsPrevious: a failed write leaves the previous
// file byte-identical and no temp droppings.
func TestWriteFileAtomicKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.bin")
	if err := dnn.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("generation-1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := dnn.WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("torn"))
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("failed writer did not propagate its error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-1" {
		t.Fatalf("previous file clobbered: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

func newSmallTrainer(t *testing.T) *Trainer {
	t.Helper()
	tr, err := NewTrainer(simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100), smallBuilder(4, 3), Config{
		Solver: chaosSolver(), Compute: true, Seed: 3, Elastic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
