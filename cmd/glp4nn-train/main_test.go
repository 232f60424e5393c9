package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// TestDAGFlagLossIdentical is the CLI-level convergence-invariance
// regression: training with -dag must print the exact final loss of the
// serial schedule, on GoogLeNet (real inter-layer parallelism) under both
// the serial baseline and the GLP4NN runtime.
func TestDAGFlagLossIdentical(t *testing.T) {
	for _, glp := range []bool{false, true} {
		base := runOptions{Net: "GoogLeNet", Batch: 2, Iters: 3, Device: "P100", Devices: 1, GLP: glp, Compute: true, Seed: 1}
		serial, err := run(io.Discard, base)
		if err != nil {
			t.Fatal(err)
		}
		withDAG := base
		withDAG.DAG = true
		dag, err := run(io.Discard, withDAG)
		if err != nil {
			t.Fatal(err)
		}
		if serial <= 0 {
			t.Fatalf("glp4nn=%v: suspicious final loss %v", glp, serial)
		}
		if math.Float64bits(serial) != math.Float64bits(dag) {
			t.Fatalf("glp4nn=%v: -dag changed the final loss: serial %v dag %v", glp, serial, dag)
		}
	}
}

// TestDAGFlagReportsDispatches: with -glp4nn -dag the run reports the
// concurrent-session dispatch count.
func TestDAGFlagReportsDispatches(t *testing.T) {
	var sb strings.Builder
	o := runOptions{Net: "GoogLeNet", Batch: 2, Iters: 3, Device: "P100", Devices: 1, GLP: true, DAG: true, Compute: true, Seed: 1}
	if _, err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "operator DAG dispatches:") {
		t.Fatalf("missing DAG dispatch report in output:\n%s", sb.String())
	}
}

// TestFuseFlagLossIdentical is the CLI-level fusion numeric contract:
// -fuse collapses bias/ReLU passes into the GEMM epilogue and the final
// loss must not move by a single bit — alone and stacked with -dag, under
// both the serial baseline and the GLP4NN runtime.
func TestFuseFlagLossIdentical(t *testing.T) {
	for _, glp := range []bool{false, true} {
		base := runOptions{Net: "GoogLeNet", Batch: 2, Iters: 3, Device: "P100", Devices: 1, GLP: glp, Compute: true, Seed: 1}
		serial, err := run(io.Discard, base)
		if err != nil {
			t.Fatal(err)
		}
		withFuse := base
		withFuse.Fuse = true
		fused, err := run(io.Discard, withFuse)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(serial) != math.Float64bits(fused) {
			t.Fatalf("glp4nn=%v: -fuse changed the final loss: serial %v fused %v", glp, serial, fused)
		}
		withBoth := withFuse
		withBoth.DAG = true
		both, err := run(io.Discard, withBoth)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(serial) != math.Float64bits(both) {
			t.Fatalf("glp4nn=%v: -dag -fuse changed the final loss: serial %v both %v", glp, serial, both)
		}
	}
}

// TestFuseFlagReportsSites: -fuse prints the fused-site count.
func TestFuseFlagReportsSites(t *testing.T) {
	var sb strings.Builder
	o := runOptions{Net: "CIFAR10", Batch: 4, Iters: 2, Device: "P100", Devices: 1, Fuse: true, Compute: true, Seed: 1}
	if _, err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fused GEMM epilogues:") {
		t.Fatalf("missing fusion report in output:\n%s", sb.String())
	}
}

// TestPrefetchFlagLossIdentical is the CLI-level prefetch numeric contract:
// -prefetch replaces the synchronous feeder with the asynchronous pipeline
// and the copy-stream input staging path, and the final loss must not move
// by a single bit — on every workload, under both the serial baseline and
// the GLP4NN runtime.
func TestPrefetchFlagLossIdentical(t *testing.T) {
	for _, net := range []string{"CIFAR10", "Siamese", "CaffeNet", "GoogLeNet"} {
		for _, glp := range []bool{false, true} {
			base := runOptions{Net: net, Batch: 2, Iters: 2, Device: "P100", Devices: 1, GLP: glp, Compute: true, Seed: 1}
			serial, err := run(io.Discard, base)
			if err != nil {
				t.Fatal(err)
			}
			withPre := base
			withPre.Prefetch = true
			pre, err := run(io.Discard, withPre)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(serial) != math.Float64bits(pre) {
				t.Fatalf("%s glp4nn=%v: -prefetch changed the final loss: serial %v prefetch %v", net, glp, serial, pre)
			}
		}
	}
}

// TestPrefetchFlagReportsPipeline: with -prefetch the run prints the
// pipeline counters, and with -glp4nn additionally the ledger's view
// (which includes copy-stream overlap time).
func TestPrefetchFlagReportsPipeline(t *testing.T) {
	var sb strings.Builder
	o := runOptions{Net: "CIFAR10", Batch: 4, Iters: 3, Device: "P100", Devices: 1, GLP: true, Prefetch: true, Compute: true, Seed: 1}
	if _, err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "input pipeline:") {
		t.Fatalf("missing pipeline report in output:\n%s", out)
	}
	if !strings.Contains(out, "glp4nn input pipeline:") {
		t.Fatalf("missing ledger pipeline report in output:\n%s", out)
	}
	if !strings.Contains(out, "copy-overlap=") {
		t.Fatalf("missing copy-overlap counter in output:\n%s", out)
	}
}

// TestPrefetchFlagUnderFaults: prefetch plus an aggressive memcpy/launch
// fault schedule still converges to the fault-free loss — the copy stream's
// retry/quarantine path and the runtime's self-healing keep bits intact.
func TestPrefetchFlagUnderFaults(t *testing.T) {
	base := runOptions{Net: "CIFAR10", Batch: 4, Iters: 3, Device: "P100", Devices: 1, GLP: true, Prefetch: true, Compute: true, Seed: 1}
	clean, err := run(io.Discard, base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Fault = simgpu.FaultPlan{Seed: 7, Memcpy: 0.3, Launch: 0.05, MaxFaults: 32}
	got, err := run(io.Discard, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(clean) != math.Float64bits(got) {
		t.Fatalf("faults changed the prefetched loss: clean %v faulty %v", clean, got)
	}
}

// TestTrainerCheckpointResumeLossIdentical is the CLI-level crash-resume
// contract: a run checkpointed mid-way, killed, and -resume'd must print
// the exact final loss of the uninterrupted run — two replicas, GLP4NN on.
func TestTrainerCheckpointResumeLossIdentical(t *testing.T) {
	base := runOptions{Net: "CIFAR10", Batch: 4, Iters: 4, Device: "P100", GLP: true, Devices: 2, Compute: true, Seed: 1}
	full, err := run(io.Discard, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killed := base
	killed.Iters = 2
	killed.CheckpointDir = dir
	if _, err := run(io.Discard, killed); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	resumed := base
	resumed.CheckpointDir = dir
	resumed.Resume = true
	got, err := run(&sb, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "resumed from") {
		t.Fatalf("missing resume report in output:\n%s", sb.String())
	}
	if math.Float64bits(full) != math.Float64bits(got) {
		t.Fatalf("-resume changed the final loss: full %v resumed %v", full, got)
	}
}

// TestResumeRefusesCorruptCheckpoint: a corrupted checkpoint (flipped byte)
// and a non-checkpoint file must both refuse -resume with a clear error.
func TestResumeRefusesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{Net: "CIFAR10", Batch: 4, Iters: 2, Device: "P100", GLP: true, Devices: 2,
		Compute: true, Seed: 1, CheckpointDir: dir}
	if _, err := run(io.Discard, base); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	resume := base
	resume.Iters = 4
	resume.Resume = true
	if _, err := run(io.Discard, resume); err == nil {
		t.Fatal("resume from a corrupted checkpoint succeeded")
	} else if !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("unexpected refusal error: %v", err)
	}

	if err := os.WriteFile(path, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(io.Discard, resume); err == nil {
		t.Fatal("resume from a non-checkpoint file succeeded")
	} else if !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
}

// TestDeviceLossFlagEvicts: -fault-devloss-after on a two-replica run
// evicts the lost replica, reports the eviction, finishes on the survivor,
// and the final loss matches the healthy two-replica run bit-for-bit.
func TestDeviceLossFlagEvicts(t *testing.T) {
	base := runOptions{Net: "CIFAR10", Batch: 4, Iters: 3, Device: "P100", GLP: true, Devices: 2, Compute: true, Seed: 1}
	healthy, err := run(io.Discard, base)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	lossy := base
	lossy.Fault = simgpu.FaultPlan{Seed: 1, DeviceLossAfter: 40}
	got, err := run(&sb, lossy)
	if err != nil {
		t.Fatalf("device loss not survived: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "device lost:") {
		t.Fatalf("missing eviction report in output:\n%s", out)
	}
	if !strings.Contains(out, "evictions=1") {
		t.Fatalf("missing eviction counter in output:\n%s", out)
	}
	if math.Float64bits(healthy) != math.Float64bits(got) {
		t.Fatalf("device loss changed the final loss: healthy %v degraded %v", healthy, got)
	}
}

// TestItersBelowOneRefused: the single-device summary divides by -iters and
// the trainer loop would report a negative count as done, so both run paths
// refuse -iters < 1 before a device is built.
func TestItersBelowOneRefused(t *testing.T) {
	for _, devices := range []int{1, 2} {
		for _, iters := range []int{0, -3} {
			o := runOptions{Net: "CIFAR10", Batch: 4, Iters: iters, Device: "P100", GLP: true, Devices: devices, Seed: 1}
			var sb strings.Builder
			if _, err := run(&sb, o); err == nil || !strings.Contains(err.Error(), "-iters") {
				t.Errorf("devices=%d iters=%d: err = %v, want an -iters error", devices, iters, err)
			}
			if sb.Len() != 0 {
				t.Errorf("devices=%d iters=%d: run printed %q before refusing", devices, iters, sb.String())
			}
		}
	}
}

// TestHostileFlagsRefused: a fault probability outside the [0,1] its help
// text promises, a negative count (-max-faults, -bucket-kb, -batch,
// -checkpoint-every, -fault-permanent-after, -fault-devloss-after; several
// used to fall back to a default and report success) or fewer than one
// device (which used to train on one) is refused on both run paths before a
// device is built.
func TestHostileFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(o *runOptions)
	}{
		{"-fault-launch", func(o *runOptions) { o.Fault.Launch = 7 }},
		{"-fault-sync", func(o *runOptions) { o.Fault.Sync = -0.5 }},
		{"-fault-memcpy", func(o *runOptions) { o.Fault.Memcpy = 1.01 }},
		{"-fault-create", func(o *runOptions) { o.Fault.CreateStream = math.NaN() }},
		{"-fault-hang", func(o *runOptions) { o.Fault.Hang = math.Inf(1) }},
		{"-fault-devloss", func(o *runOptions) { o.Fault.DeviceLoss = -1 }},
		{"-max-faults", func(o *runOptions) { o.Fault.MaxFaults = -1 }},
		{"-bucket-kb", func(o *runOptions) { o.BucketKB = -1 }},
		{"-batch", func(o *runOptions) { o.Batch = -5 }},
		{"-devices", func(o *runOptions) { o.Devices = 0 }},
		{"-devices", func(o *runOptions) { o.Devices = -2 }},
		{"-checkpoint-every", func(o *runOptions) { o.CheckpointEvery = -3 }},
		{"-fault-permanent-after", func(o *runOptions) { o.Fault.PermanentAfter = -4 }},
		{"-fault-devloss-after", func(o *runOptions) { o.Fault.DeviceLossAfter = -1 }},
	} {
		for _, devices := range []int{1, 2} {
			o := runOptions{Net: "CIFAR10", Batch: 4, Iters: 2, Device: "P100", GLP: true, Devices: devices, Seed: 1}
			c.set(&o)
			var sb strings.Builder
			if _, err := run(&sb, o); err == nil || !strings.Contains(err.Error(), c.flag) {
				t.Errorf("devices=%d %s: err = %v, want a %s error", devices, c.flag, err, c.flag)
			}
			if sb.Len() != 0 {
				t.Errorf("devices=%d %s: run printed %q before refusing", devices, c.flag, sb.String())
			}
		}
	}
}

// traceKernelEvents counts the complete ("X") events of a Chrome trace file.
func traceKernelEvents(t *testing.T, path string) int {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph string `json:"ph"`
	}
	if err := json.Unmarshal(blob, &events); err != nil {
		t.Fatalf("%s is not a trace-event array: %v", path, err)
	}
	n := 0
	for _, e := range events {
		if e.Ph == "X" {
			n++
		}
	}
	return n
}

// TestTraceFlagHoldsFinalIteration: -trace writes the lead device's whole
// final iteration. On the solver loop that is one event per launch (input
// copy included) of one iteration, counted here on an independent device;
// a device built with a one-record trace limit wrote exactly one. On the
// trainer each phase resets the clocks, so the file holds the last phase —
// the update — and must not be empty.
func TestTraceFlagHoldsFinalIteration(t *testing.T) {
	w, err := models.Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	ctx := dnn.NewContext(dnn.SerialLauncher{Dev: dev}, 1)
	net, err := w.Build(ctx, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.NewFeeder(4, 2)(net); err != nil {
		t.Fatal(err)
	}
	if err := net.UploadInputs(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver()).Step(); err != nil {
		t.Fatal(err)
	}
	st, err := dev.Stats()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	o := runOptions{Net: "CIFAR10", Batch: 4, Iters: 3, Device: "P100", Devices: 1, Compute: true, Seed: 1, Trace: path}
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if got := traceKernelEvents(t, path); int64(got) != st.Launches || got < 2 {
		t.Fatalf("solver loop: trace holds %d events, the final iteration launched %d", got, st.Launches)
	}

	o.Devices, o.GLP = 2, true
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if got := traceKernelEvents(t, path); got == 0 {
		t.Fatal("trainer: trace of the lead device's final phase is empty")
	}
}

// TestFlagMatrix: every feature flag works on both step engines, with and
// without GLP4NN — the cell's final loss equals its engine's plain run bit
// for bit, its artefact exists and the tail reports what the flags turned
// on — and the two refusals that remain come from run's validation block,
// on both engines, before anything is printed.
func TestFlagMatrix(t *testing.T) {
	dir := t.TempDir()
	cells := []struct {
		name string
		set  func(o *runOptions)
		want string // in the output
	}{
		{"plain", func(o *runOptions) {}, "done:"},
		{"-dag", func(o *runOptions) { o.DAG = true }, ""},
		{"-fuse", func(o *runOptions) { o.Fuse = true }, "fused GEMM epilogues:"},
		{"-prefetch", func(o *runOptions) { o.Prefetch = true }, "input pipeline: shard 0 hits="},
		{"-trace", func(o *runOptions) { o.Trace = filepath.Join(dir, "t.json") }, "chrome trace"},
		{"-save-weights", func(o *runOptions) { o.SaveWeights = filepath.Join(dir, "w.glpw") }, "trained weights written"},
	}
	for _, devices := range []int{1, 2} {
		for _, glp := range []bool{false, true} {
			base := runOptions{Net: "CIFAR10", Batch: 4, Iters: 2, Device: "P100", GLP: glp, Devices: devices, Compute: true, Seed: 1}
			var plain float64
			for _, c := range cells {
				o := base
				c.set(&o)
				var sb strings.Builder
				loss, err := run(&sb, o)
				if err != nil {
					t.Fatalf("devices=%d glp4nn=%v %s: %v", devices, glp, c.name, err)
				}
				if c.name == "plain" {
					plain = loss
				}
				if math.Float64bits(loss) != math.Float64bits(plain) || loss <= 0 {
					t.Errorf("devices=%d glp4nn=%v %s: final loss %v, plain run %v", devices, glp, c.name, loss, plain)
				}
				want := []string{c.want}
				if glp {
					want = append(want, "glp4nn overhead:", "concurrency plans:")
				}
				if glp && o.DAG {
					want = append(want, "operator DAG dispatches:")
				}
				for _, s := range want {
					if !strings.Contains(sb.String(), s) {
						t.Errorf("devices=%d glp4nn=%v %s: output lacks %q:\n%s", devices, glp, c.name, s, sb.String())
					}
				}
				for _, f := range []string{o.Trace, o.SaveWeights} {
					if st, err := os.Stat(f); f != "" && (err != nil || st.Size() == 0) {
						t.Errorf("devices=%d glp4nn=%v %s: %s missing or empty (%v)", devices, glp, c.name, f, err)
					}
				}
			}
		}
		for _, c := range []struct {
			reason string
			set    func(o *runOptions)
		}{
			{"-resume needs -checkpoint-dir", func(o *runOptions) { o.Resume = true }},
			{"-adapt needs -glp4nn", func(o *runOptions) { o.Adapt = true }},
		} {
			o := runOptions{Net: "CIFAR10", Batch: 4, Iters: 2, Device: "P100", Devices: devices, Compute: true, Seed: 1}
			c.set(&o)
			var sb strings.Builder
			if _, err := run(&sb, o); err == nil || !strings.Contains(err.Error(), c.reason) || sb.Len() != 0 {
				t.Errorf("devices=%d: err = %v after printing %q, want a silent %q refusal", devices, err, sb.String(), c.reason)
			}
		}
	}
}
