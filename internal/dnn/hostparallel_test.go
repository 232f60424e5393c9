package dnn

import (
	"math"
	"testing"

	"repro/internal/hostpool"
)

// bitsEqual reports bitwise float32 equality of two slices.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// trainTiny trains the tiny net for a few steps at the given launcher width
// and returns the final parameter values.
func trainTiny(t *testing.T, width int, pool *hostpool.Pool) [][]float32 {
	t.Helper()
	net := buildTinyNet(t, 6, 123)
	// A dropout layer exercises the RNG-in-closure path under the pool.
	net2, err := NewNet("tiny-dropout").
		Input("data", 6, 2, 8, 8).
		Input("label", 6).
		Add(NewConv("conv1", Conv(4, 3, 1, 1)), []string{"data"}, []string{"c1"}).
		Add(NewReLU("relu1"), []string{"c1"}, []string{"r1"}).
		Add(NewDropout("drop1", 0.3), []string{"r1"}, []string{"d1"}).
		Add(NewIP("ip1", IP(3)), []string{"d1"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(NewContext(HostLauncher{}, 123))
	if err != nil {
		t.Fatal(err)
	}
	net = net2
	fillTinyInputs(t, net, 321)

	ctx := NewContext(widthLauncher{width}, 7)
	ctx.Pool = pool
	s := NewSolver(net, ctx, SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < 4; i++ {
		loss, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) {
			t.Fatalf("step %d: loss NaN", i)
		}
	}
	var out [][]float32
	for _, p := range net.Params() {
		out = append(out, append([]float32(nil), p.Data.Data()...))
	}
	return out
}

// TestHostParallelBitIdentical: at a fixed launcher width, offloading chain
// closures to the worker pool must produce bit-identical trained parameters
// to inline (serial) host execution. This is the engine's determinism
// guarantee.
func TestHostParallelBitIdentical(t *testing.T) {
	for _, width := range []int{2, 3, 4, 8} {
		serial := trainTiny(t, width, nil)
		parallel := trainTiny(t, width, hostpool.New(4))
		if len(serial) != len(parallel) {
			t.Fatalf("width %d: param count mismatch", width)
		}
		for i := range serial {
			for j := range serial[i] {
				if math.Float32bits(serial[i][j]) != math.Float32bits(parallel[i][j]) {
					t.Fatalf("width %d: param %d[%d] differs: serial %v parallel %v",
						width, i, j, serial[i][j], parallel[i][j])
				}
			}
		}
	}
}

// TestHostParallelRNN: the RNN's per-sample BPTT chains share dhBuf/partial
// buffers by chain % width; the pool must keep them serialized per lane and
// bit-identical to inline execution.
func TestHostParallelRNN(t *testing.T) {
	run := func(pool *hostpool.Pool) ([]float32, [][]float32) {
		ctx := NewContext(widthLauncher{3}, 5)
		ctx.Pool = pool
		cfg := RNNConfig{Hidden: 7, Seed: 11}
		net, err := NewNet("rnn").
			Input("x", 5, 4, 3).
			Input("target", 5, 4, 7).
			Add(NewRNN("rnn1", cfg), []string{"x"}, []string{"h"}).
			Add(NewEuclideanLoss("loss"), []string{"h", "target"}, []string{"l"}).
			Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(net.Blob("x"), 61)
		fillRandom(net.Blob("target"), 62)
		if _, err := net.ForwardBackward(ctx); err != nil {
			t.Fatal(err)
		}
		var grads [][]float32
		for _, p := range net.Params() {
			grads = append(grads, append([]float32(nil), p.Diff.Data()...))
		}
		return append([]float32(nil), net.Blob("h").Data.Data()...), grads
	}
	hSerial, gSerial := run(nil)
	hPar, gPar := run(hostpool.New(2))
	for i := range hSerial {
		if math.Float32bits(hSerial[i]) != math.Float32bits(hPar[i]) {
			t.Fatalf("hidden state %d differs", i)
		}
	}
	for i := range gSerial {
		for j := range gSerial[i] {
			if math.Float32bits(gSerial[i][j]) != math.Float32bits(gPar[i][j]) {
				t.Fatalf("gradient %d[%d] differs: %v vs %v", i, j, gSerial[i][j], gPar[i][j])
			}
		}
	}
}
