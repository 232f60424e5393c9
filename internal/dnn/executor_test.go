package dnn_test

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

var errInjected = errors.New("injected launch failure")

// probeState is shared by a probeLauncher and every session it forks.
type probeState struct {
	failLayer string       // launches of this layer fail
	slowLayer string       // launches of this layer take a while
	calls     atomic.Int64 // every launcher call, from any session
}

// probeLauncher is a host launcher (kernels run inline) that forks
// per-invocation sessions, so the executor may take its wavefront branch,
// and injects a failure into one layer while a sibling is kept in flight.
type probeLauncher struct {
	st    *probeState
	layer string // current invocation, without the /fwd|/bwd suffix
}

func (l *probeLauncher) BeginLayer(key string) {
	l.st.calls.Add(1)
	l.layer = key[:strings.LastIndexByte(key, '/')]
}

func (l *probeLauncher) Launch(k *simgpu.Kernel, _ int) error {
	l.st.calls.Add(1)
	switch l.layer {
	case l.st.failLayer:
		return errInjected
	case l.st.slowLayer:
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (l *probeLauncher) Sync() error              { l.st.calls.Add(1); return nil }
func (l *probeLauncher) Width() int               { return 2 }
func (l *probeLauncher) ForkLayerSession() any    { return &probeLauncher{st: l.st} }
func (l *probeLauncher) DAGReady([]string) bool   { return true }
func (l *probeLauncher) LayerConcurrencyCap() int { return 0 }

// executorCase is one net the executor table runs on: the layer to fail sits
// inside a branch, first in definition order (index 0) transitively consumes
// its gradient, and slow is a sibling branch still in flight when it fails.
type executorCase struct {
	workload   string
	fail, slow string
}

var executorCases = []executorCase{
	{"GoogLeNet", "conv_1", "conv_4"},
	{"Siamese", "conv2", "conv2_p"},
}

// executorRun builds a fresh net, feeds it, and runs one program through the
// executor: "fwd" and "bwd" are Net.Forward and Net.Forward+Backward, "frozen"
// is FrozenNet.Forward. It returns the bit pattern of everything the program
// wrote (activations; for bwd, every blob and parameter gradient), the
// backward hooks in firing order, and the run's error.
func executorRun(t *testing.T, c executorCase, kind string, dag bool, st *probeState) (map[string][]uint32, []int, *dnn.Net, error) {
	t.Helper()
	w, err := models.Get(c.workload)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 2
	net, err := w.Build(dnn.NewContext(dnn.HostLauncher{}, 7), batch, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.NewFeeder(batch, 8)(net); err != nil {
		t.Fatal(err)
	}
	net.EnableDAG(dag)
	var hooks []int
	net.OnLayerBackward(func(li int) { hooks = append(hooks, li) })
	ctx := dnn.NewContext(&probeLauncher{st: st}, 9)

	bits := map[string][]uint32{}
	capture := func(name string, vals []float32) {
		out := make([]uint32, len(vals))
		for i, v := range vals {
			out[i] = math.Float32bits(v)
		}
		bits[name] = out
	}
	switch kind {
	case "frozen":
		fz, ferr := dnn.Freeze(net)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if st := fz.DAGStats(); st.MaxWavefront < 2 {
			t.Fatalf("%s frozen program offers no parallelism: %+v", c.workload, st)
		}
		err = fz.Forward(ctx)
	case "fwd":
		var loss float64
		loss, err = net.Forward(ctx)
		capture("(loss)", []float32{float32(loss)})
	case "bwd":
		net.ClearDiffs()
		// The forward half runs clean: the injected failure is backward's.
		if _, err = net.Forward(dnn.NewContext(&probeLauncher{st: &probeState{}}, 9)); err != nil {
			t.Fatal(err)
		}
		err = net.Backward(ctx)
		for _, p := range net.Params() {
			capture("(param) "+p.Name, p.Diff.Data())
		}
	}
	for name, b := range net.Blobs() {
		if kind == "bwd" {
			capture(name, b.Diff.Data())
		} else {
			capture(name, b.Data.Data())
		}
	}
	return bits, hooks, net, err
}

// TestExecutor holds the one executor to its contract on every program kind
// it runs — Net forward, Net backward, FrozenNet forward — on the two
// branchy workloads: the wavefront scheduler writes bit for bit what the
// direct loop writes, and on either branch a failing op's error is the one
// returned, nothing is still running when it is, and no gradient-ready hook
// fires for the failed op or for anything that needed its result.
func TestExecutor(t *testing.T) {
	for _, c := range executorCases {
		for _, kind := range []string{"fwd", "bwd", "frozen"} {
			c, kind := c, kind
			t.Run(c.workload+"/"+kind, func(t *testing.T) {
				want, hooks, net, err := executorRun(t, c, kind, false, &probeState{})
				if err != nil {
					t.Fatal(err)
				}
				layers := net.LayerCount()
				if kind == "bwd" {
					for k, li := range hooks {
						if li != layers-1-k {
							t.Fatalf("direct loop fired hook %d for layer %d, want exact reverse order", k, li)
						}
					}
				}
				if kind != "bwd" && len(hooks) != 0 || kind == "bwd" && len(hooks) != layers {
					t.Fatalf("%d hooks fired over %d layers", len(hooks), layers)
				}
				got, hooks, _, err := executorRun(t, c, kind, true, &probeState{})
				if err != nil {
					t.Fatal(err)
				}
				if kind == "bwd" && len(hooks) != layers {
					t.Fatalf("wavefront fired %d hooks over %d layers", len(hooks), layers)
				}
				if len(got) != len(want) {
					t.Fatalf("wavefront wrote %d tensors, direct loop %d", len(got), len(want))
				}
				for name, wb := range want {
					gb := got[name]
					if len(gb) != len(wb) {
						t.Fatalf("%s: length %d vs %d", name, len(gb), len(wb))
					}
					for i := range wb {
						if wb[i] != gb[i] {
							t.Fatalf("%s[%d]: wavefront %08x, direct loop %08x", name, i, gb[i], wb[i])
						}
					}
				}

				for _, dag := range []bool{false, true} {
					st := &probeState{failLayer: c.fail, slowLayer: c.slow}
					_, hooks, net, err := executorRun(t, c, kind, dag, st)
					if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), " "+c.fail+":") {
						t.Fatalf("dag=%v: error %v, want the injected failure of %s", dag, err, c.fail)
					}
					// Drained: no session makes another launcher call.
					calls := st.calls.Load()
					time.Sleep(20 * time.Millisecond)
					if late := st.calls.Load() - calls; late != 0 {
						t.Fatalf("dag=%v: %d launcher calls after the executor returned", dag, late)
					}
					failIdx := -1
					for i, l := range net.Layers() {
						if l.Name() == c.fail {
							failIdx = i
						}
					}
					for k, li := range hooks {
						if li == failIdx || li == 0 {
							t.Fatalf("dag=%v: hook fired for layer %d after %s (layer %d) failed", dag, li, c.fail, failIdx)
						}
						if !dag && li != layers-1-k {
							t.Fatalf("direct loop fired hook %d for layer %d before failing", k, li)
						}
					}
					if !dag && kind == "bwd" && len(hooks) != layers-1-failIdx {
						t.Fatalf("direct loop fired %d hooks, want the %d layers after %s", len(hooks), layers-1-failIdx, c.fail)
					}
				}
			})
		}
	}
}
