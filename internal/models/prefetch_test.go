package models

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/hostpool"
)

// TestInputPipeMatchesFeeder: for every workload, the asynchronous pipe
// lands bit-for-bit the same bytes in the same input blobs as the
// synchronous feeder at equal (batch, seed) — batch after batch.
func TestInputPipeMatchesFeeder(t *testing.T) {
	cases := []struct {
		name  string
		batch int
		blobs []string
	}{
		{"CIFAR10", 4, []string{"data", "label"}},
		{"Siamese", 4, []string{"data", "data_p", "sim"}},
		{"CaffeNet", 2, []string{"data", "label"}},
		{"GoogLeNet", 3, []string{"data", "label"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, err := Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			netA, err := w.Build(dnn.NewContext(dnn.HostLauncher{}, 5), c.batch, 5)
			if err != nil {
				t.Fatal(err)
			}
			netB, err := w.Build(dnn.NewContext(dnn.HostLauncher{}, 5), c.batch, 5)
			if err != nil {
				t.Fatal(err)
			}
			feed := w.NewFeeder(c.batch, 9)
			pipe, err := NewInputPipe(c.name, c.batch, 9, PipeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			for b := 0; b < 6; b++ {
				if err := feed(netA); err != nil {
					t.Fatal(err)
				}
				if err := pipe.Feed(netB); err != nil {
					t.Fatal(err)
				}
				for _, blob := range c.blobs {
					a := netA.Blob(blob).Data.Data()
					bd := netB.Blob(blob).Data.Data()
					for i := range a {
						if math.Float32bits(a[i]) != math.Float32bits(bd[i]) {
							t.Fatalf("batch %d blob %q[%d]: feeder %v pipe %v", b, blob, i, a[i], bd[i])
						}
					}
				}
			}
			st := pipe.Stats()
			if st.Hits+st.Stalls != 6 {
				t.Fatalf("hits %d + stalls %d != 6 feeds", st.Hits, st.Stalls)
			}
		})
	}
}

// trainWorkloadPipe is trainWorkload with the asynchronous input pipeline
// replacing the inline feeder (same feeder seed 6).
func trainWorkloadPipe(t *testing.T, name string, batch, width, steps int, pool *hostpool.Pool) [][]float32 {
	t.Helper()
	w, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dnn.NewContext(hostWidthLauncher{width}, 5)
	ctx.Pool = pool
	net, err := w.Build(ctx, batch, 5)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewInputPipe(name, batch, 6, PipeConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	s := dnn.NewSolver(net, ctx, dnn.SolverConfig{BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < steps; i++ {
		if err := pipe.Feed(net); err != nil {
			t.Fatal(err)
		}
		if err := net.StageInputs(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]float32
	for _, p := range net.Params() {
		out = append(out, append([]float32(nil), p.Data.Data()...))
	}
	return out
}

// TestPrefetchConvergenceInvariance: training every workload through the
// asynchronous pipeline yields parameters bitwise identical to the inline
// feeder — the tentpole's numeric contract at the standalone-net level.
func TestPrefetchConvergenceInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, width int
		steps        int
	}{
		{"CIFAR10", 4, 3, 2},
		{"Siamese", 4, 3, 2},
		{"CaffeNet", 2, 2, 1},
		{"GoogLeNet", 4, 4, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := trainWorkload(t, c.name, c.batch, c.width, c.steps, nil)
			piped := trainWorkloadPipe(t, c.name, c.batch, c.width, c.steps, nil)
			assertParamsBitwiseEqual(t, c.name, "prefetched", serial, piped)
			pooled := trainWorkloadPipe(t, c.name, c.batch, c.width, c.steps, hostpool.New(4))
			assertParamsBitwiseEqual(t, c.name, "prefetched+pool", serial, pooled)
		})
	}
}

// TestInputPipeRollbackMidStream: rolling the pipe back between feeds (the
// trainer's Restore hook) leaves the delivered stream identical to the
// feeder's — prefetched-ahead batches are discarded and replayed, not
// leaked out of order.
func TestInputPipeRollbackMidStream(t *testing.T) {
	w, err := Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	netA, _ := w.Build(dnn.NewContext(dnn.HostLauncher{}, 5), 4, 5)
	netB, _ := w.Build(dnn.NewContext(dnn.HostLauncher{}, 5), 4, 5)
	feed := w.NewFeeder(4, 9)
	pipe, err := NewInputPipe("CIFAR10", 4, 9, PipeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for b := 0; b < 10; b++ {
		if b == 3 || b == 7 {
			pipe.Rollback()
		}
		if err := feed(netA); err != nil {
			t.Fatal(err)
		}
		if err := pipe.Feed(netB); err != nil {
			t.Fatal(err)
		}
		a := netA.Blob("data").Data.Data()
		bd := netB.Blob("data").Data.Data()
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(bd[i]) {
				t.Fatalf("batch %d: stream diverged after rollback", b)
			}
		}
	}
}

// TestNewInputPipeUnknownWorkload: the error names the workload and the
// valid set.
func TestNewInputPipeUnknownWorkload(t *testing.T) {
	if _, err := NewInputPipe("AlexNet", 4, 1, PipeConfig{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if p, err := NewInputPipe("CIFAR10", 4, 1, PipeConfig{}); err != nil {
		t.Fatal(err)
	} else {
		if p.Feeder() == nil {
			t.Fatal("Feeder adapter is nil")
		}
		p.Close()
	}
}

// TestDefaultBatchDelivered: batch 0 means the paper default on both input
// paths of every workload — the feeder and the pipe each fill input blobs
// shaped for DefaultBatch rows (SetInputData refuses any other length).
func TestDefaultBatchDelivered(t *testing.T) {
	for _, name := range Names {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _, _ := w.open(1, 3)
		blobs := w.input.blobs
		b := dnn.NewNet(name+"-inputs").Input(blobs[len(blobs)-1], w.DefaultBatch)
		for _, plane := range blobs[:len(blobs)-1] {
			b.Input(plane, w.DefaultBatch, size)
		}
		net, err := b.Build(dnn.NewContext(dnn.HostLauncher{}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.NewFeeder(0, 3)(net); err != nil {
			t.Errorf("%s: NewFeeder(0): %v", name, err)
		}
		pipe, err := NewInputPipe(name, 0, 3, PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.Feed(net); err != nil {
			t.Errorf("%s: NewInputPipe(0): %v", name, err)
		}
		pipe.Close()
	}
}
