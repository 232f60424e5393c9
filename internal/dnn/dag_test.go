package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hostpool"
	"repro/internal/simgpu"
)

// The DAG side-contract lets the width-forcing test launcher serve
// concurrent DAG sessions; it is stateless, so the fork is the launcher
// itself, always ready and uncapped.
func (l widthLauncher) ForkLayerSession() any  { return l }
func (widthLauncher) DAGReady([]string) bool   { return true }
func (widthLauncher) LayerConcurrencyCap() int { return 0 }

// forkOnlyLauncher is the partial wrapper ROADMAP item 2 warns about: it
// forwards ForkLayerSession and forgets the rest of the DAG contract. It
// records the layer keys it is handed and how often it was asked to fork.
type forkOnlyLauncher struct {
	inner widthLauncher
	keys  *[]string
	forks *int
}

func (l forkOnlyLauncher) BeginLayer(key string)                { *l.keys = append(*l.keys, key) }
func (l forkOnlyLauncher) Launch(k *simgpu.Kernel, c int) error { return l.inner.Launch(k, c) }
func (l forkOnlyLauncher) Sync() error                          { return nil }
func (l forkOnlyLauncher) Width() int                           { return l.inner.w }
func (l forkOnlyLauncher) ForkLayerSession() any                { *l.forks++; return l }

// TestDAGContractIsWhole: a launcher is a LayerSessionForker only with the
// whole contract, and behind one that has only part of it a DAG-enabled
// branchy net runs the exact definition order without ever forking.
func TestDAGContractIsWhole(t *testing.T) {
	var keys []string
	forks := 0
	partial := forkOnlyLauncher{widthLauncher{2}, &keys, &forks}
	for _, c := range []struct {
		name string
		l    Launcher
		want bool
	}{
		{"HostLauncher", HostLauncher{}, true},
		{"SerialLauncher", SerialLauncher{}, true},
		{"widthLauncher", widthLauncher{2}, true},
		{"ForkLayerSession alone", partial, false},
	} {
		if _, ok := c.l.(LayerSessionForker); ok != c.want {
			t.Errorf("%s: LayerSessionForker = %v, want %v", c.name, ok, c.want)
		}
	}

	run := func(dag bool) []string {
		keys = nil
		net := buildBranchyNet(t, 4, 5)
		net.EnableDAG(dag)
		fillTinyInputs(t, net, 99)
		ctx := NewContext(partial, 7)
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(ctx); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	serial, dag := run(false), run(true)
	if len(serial) == 0 || strings.Join(serial, " ") != strings.Join(dag, " ") {
		t.Errorf("DAG-enabled run behind a partial contract left the definition order:\nserial %v\ndag    %v", serial, dag)
	}
	if forks != 0 {
		t.Errorf("a launcher that is not a LayerSessionForker was asked to fork %d times", forks)
	}
}

// --- DAG builder validation -------------------------------------------------

func spec(name string, bottoms, tops []string) dagSpec {
	return dagSpec{Name: name, Bottoms: bottoms, Tops: tops, AddOnce: true}
}

func TestDAGBuilderRejectsInvalid(t *testing.T) {
	inputs := map[string]bool{"data": true}
	cases := []struct {
		name  string
		specs []dagSpec
		want  string
	}{
		{"undefined bottom",
			[]dagSpec{spec("a", []string{"ghost"}, []string{"x"})},
			"not an input or any layer's top"},
		{"duplicate top",
			[]dagSpec{
				spec("a", []string{"data"}, []string{"x"}),
				spec("b", []string{"data"}, []string{"x"}),
			},
			"produced twice"},
		{"top shadows input",
			[]dagSpec{spec("a", []string{"data"}, []string{"data"})},
			"is an input blob"},
		{"cycle",
			[]dagSpec{
				spec("a", []string{"y"}, []string{"x"}),
				spec("b", []string{"x"}, []string{"y"}),
			},
			"cycle or out-of-order"},
		{"self loop",
			[]dagSpec{spec("a", []string{"x"}, []string{"x"})},
			"cycle or out-of-order"},
		{"propagate arity",
			[]dagSpec{{Name: "a", Bottoms: []string{"data"}, Tops: []string{"x"}, Propagate: []bool{true, false}}},
			"propagate flags"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildLayerDAG(tc.specs, inputs, nil)
			if err == nil {
				t.Fatalf("%s: expected error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}

// checkDAGInvariants verifies the structural properties every valid DAG
// must satisfy: forward edges point from earlier to later layers (so
// ascending entry index is a topological order), backward edges the
// reverse, fold groups hold only add-once consumers in descending order,
// and the stats are internally consistent.
func checkDAGInvariants(t *testing.T, d *layerDAG) {
	t.Helper()
	n := len(d.nodes)
	for i, node := range d.nodes {
		for _, dep := range node.fwdDeps {
			if dep >= i {
				t.Fatalf("fwd dep %d of node %d does not precede it", dep, i)
			}
		}
		for _, s := range node.fwdSuccs {
			if s <= i {
				t.Fatalf("fwd succ %d of node %d does not follow it", s, i)
			}
		}
		for _, dep := range node.bwdDeps {
			if dep <= i {
				t.Fatalf("bwd dep %d of node %d does not follow it", dep, i)
			}
		}
		for _, s := range node.bwdSuccs {
			if s >= i {
				t.Fatalf("bwd succ %d of node %d does not precede it", s, i)
			}
		}
	}
	for _, g := range d.folds {
		for j, c := range g.consumers {
			if !d.specs[c].AddOnce {
				t.Fatalf("fold group %q holds non-add-once consumer %q", g.blob, d.specs[c].Name)
			}
			if j > 0 && g.consumers[j-1] <= c {
				t.Fatalf("fold group %q consumers not in descending order: %v", g.blob, g.consumers)
			}
		}
	}
	st := d.stats
	if st.Layers != n {
		t.Fatalf("stats.Layers = %d, want %d", st.Layers, n)
	}
	if n > 0 && (st.FwdDepth < 1 || st.FwdDepth > n || st.BwdDepth < 1 || st.BwdDepth > n) {
		t.Fatalf("implausible depths: %+v", st)
	}
	if n > 0 && (st.MaxWavefront < 1 || st.MaxWavefront > n || st.MaxBwdWavefront < 1) {
		t.Fatalf("implausible wavefronts: %+v", st)
	}
	if n > 0 && len(st.CriticalPath) != st.FwdDepth {
		t.Fatalf("critical path %v does not match depth %d", st.CriticalPath, st.FwdDepth)
	}
	if d.fwdChain != (st.MaxWavefront <= 1) || d.bwdChain != (st.MaxBwdWavefront <= 1) {
		t.Fatalf("chain flags inconsistent with stats: %+v", st)
	}
}

// randomSpecs generates a structurally valid random net: every bottom is
// an input or an earlier top, every top is fresh.
func randomSpecs(rng *rand.Rand) ([]dagSpec, map[string]bool) {
	inputs := map[string]bool{"in0": true, "in1": true}
	blobs := []string{"in0", "in1"}
	n := 1 + rng.Intn(12)
	specs := make([]dagSpec, 0, n)
	for i := 0; i < n; i++ {
		nb := 1 + rng.Intn(3)
		var bottoms []string
		for j := 0; j < nb; j++ {
			bottoms = append(bottoms, blobs[rng.Intn(len(blobs))])
		}
		nt := 1 + rng.Intn(2)
		var tops []string
		for j := 0; j < nt; j++ {
			top := fmt.Sprintf("b%d_%d", i, j)
			tops = append(tops, top)
			blobs = append(blobs, top)
		}
		specs = append(specs, dagSpec{
			Name: fmt.Sprintf("l%d", i), Bottoms: bottoms, Tops: tops,
			AddOnce: rng.Intn(2) == 0, UsesRNG: rng.Intn(4) == 0,
		})
	}
	return specs, inputs
}

func TestDAGBuilderRandomNets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		specs, inputs := randomSpecs(rng)
		d, err := buildLayerDAG(specs, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: valid net rejected: %v", trial, err)
		}
		checkDAGInvariants(t, d)
	}
}

// FuzzDAGBuilder decodes arbitrary bytes into a net description — often
// invalid — and requires the builder to either reject it or produce a DAG
// satisfying every structural invariant. Malformed nets must fail with an
// error, never a panic or a cyclic graph.
func FuzzDAGBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 1, 2, 0, 7})
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 255, 1, 2, 3})
	f.Add([]byte("layers"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		inputs := map[string]bool{"in0": true}
		pool := []string{"in0"}
		n := 1 + int(next(0))%10
		var specs []dagSpec
		pos := 1
		for i := 0; i < n; i++ {
			nb := 1 + int(next(pos))%3
			pos++
			var bottoms []string
			for j := 0; j < nb; j++ {
				// Indexes past the current pool reference future tops or
				// undefined blobs, probing the validation paths.
				idx := int(next(pos)) % (len(pool) + 4)
				pos++
				if idx < len(pool) {
					bottoms = append(bottoms, pool[idx])
				} else {
					bottoms = append(bottoms, fmt.Sprintf("blob%d", idx+i))
				}
			}
			top := fmt.Sprintf("blob%d", int(next(pos)))
			pos++
			specs = append(specs, dagSpec{
				Name: fmt.Sprintf("l%d", i), Bottoms: bottoms, Tops: []string{top},
				AddOnce: next(pos)%2 == 0, UsesRNG: next(pos)%3 == 0,
			})
			pos++
			pool = append(pool, top)
		}
		d, err := buildLayerDAG(specs, inputs, nil)
		if err != nil {
			return
		}
		checkDAGInvariants(t, d)
	})
}

// --- Bitwise invariance: DAG vs serial --------------------------------------

// buildBranchyNet exercises every DAG mechanism at once: a shared bottom
// with two add-once consumers (scratch fold), a slice→conv branches→concat
// diamond (concurrent non-add-once layers on disjoint blobs), and a final
// classifier.
func buildBranchyNet(t testing.TB, batch int, seed int64) *Net {
	t.Helper()
	ctx := NewContext(HostLauncher{}, seed)
	cc := Conv(4, 3, 1, 1)
	cc.Seed = seed
	ca := Conv(3, 3, 1, 1)
	ca.Seed = seed + 1
	cb := Conv(3, 3, 1, 1)
	cb.Seed = seed + 2
	ic := IP(3)
	ic.Seed = seed + 3
	net, err := NewNet("branchy").
		Input("data", batch, 2, 8, 8).
		Input("label", batch).
		Add(NewConv("conv0", cc), []string{"data"}, []string{"t"}).
		Add(NewReLU("relu_a"), []string{"t"}, []string{"a"}).
		Add(NewSigmoid("sig_b"), []string{"t"}, []string{"b"}).
		Add(NewEltwise("elt", EltwiseSum, nil), []string{"a", "b"}, []string{"e"}).
		Add(NewSlice("slice"), []string{"e"}, []string{"s1", "s2"}).
		Add(NewConv("conv_a", ca), []string{"s1"}, []string{"ca"}).
		Add(NewConv("conv_b", cb), []string{"s2"}, []string{"cb"}).
		Add(NewConcat("concat"), []string{"ca", "cb"}, []string{"cc"}).
		Add(NewPool("pool", Pool(MaxPool, 2, 2)), []string{"cc"}, []string{"p"}).
		Add(NewIP("ip", ic), []string{"p"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// buildSharedBottomConvNet makes two convolutions (not add-once) consume
// one blob, forcing the serialization-edge policy instead of scratch
// folding.
func buildSharedBottomConvNet(t testing.TB, batch int, seed int64) *Net {
	t.Helper()
	ctx := NewContext(HostLauncher{}, seed)
	c0 := Conv(2, 3, 1, 1)
	c0.Seed = seed
	ca := Conv(3, 3, 1, 1)
	ca.Seed = seed + 1
	cb := Conv(3, 3, 1, 1)
	cb.Seed = seed + 2
	ic := IP(3)
	ic.Seed = seed + 3
	net, err := NewNet("sharedbottom").
		Input("data", batch, 2, 8, 8).
		Input("label", batch).
		Add(NewConv("conv0", c0), []string{"data"}, []string{"t"}).
		Add(NewConv("conv_a", ca), []string{"t"}, []string{"a"}).
		Add(NewConv("conv_b", cb), []string{"t"}, []string{"b"}).
		Add(NewConcat("concat"), []string{"a", "b"}, []string{"c"}).
		Add(NewIP("ip", ic), []string{"c"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// buildDropoutBranchNet puts a dropout in each of two parallel branches,
// exercising the RNG insertion-order chain in the forward DAG.
func buildDropoutBranchNet(t testing.TB, batch int, seed int64) *Net {
	t.Helper()
	ctx := NewContext(HostLauncher{}, seed)
	cc := Conv(4, 3, 1, 1)
	cc.Seed = seed
	ic := IP(3)
	ic.Seed = seed + 1
	net, err := NewNet("dropbranch").
		Input("data", batch, 2, 8, 8).
		Input("label", batch).
		Add(NewConv("conv0", cc), []string{"data"}, []string{"t"}).
		Add(NewReLU("relu_a"), []string{"t"}, []string{"a"}).
		Add(NewSigmoid("sig_b"), []string{"t"}, []string{"b"}).
		Add(NewDropout("drop_a", 0.4), []string{"a"}, []string{"da"}).
		Add(NewDropout("drop_b", 0.4), []string{"b"}, []string{"db"}).
		Add(NewEltwise("elt", EltwiseSum, nil), []string{"da", "db"}, []string{"e"}).
		Add(NewIP("ip", ic), []string{"e"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// trainParams trains the given net for a few solver steps and returns
// copies of every parameter.
func trainParams(t *testing.T, net *Net, dag bool, width int, pool *hostpool.Pool, steps int) [][]float32 {
	t.Helper()
	net.EnableDAG(dag)
	fillTinyInputs(t, net, 99)
	ctx := NewContext(widthLauncher{w: width}, 7)
	ctx.Pool = pool
	s := NewSolver(net, ctx, SolverConfig{BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < steps; i++ {
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

func assertBitsEqual(t *testing.T, serial, dag [][]float32, label string) {
	t.Helper()
	if len(serial) != len(dag) {
		t.Fatalf("%s: param count %d vs %d", label, len(serial), len(dag))
	}
	for pi := range serial {
		for i := range serial[pi] {
			if math.Float32bits(serial[pi][i]) != math.Float32bits(dag[pi][i]) {
				t.Fatalf("%s: param %d element %d differs: %x vs %x",
					label, pi, i, math.Float32bits(serial[pi][i]), math.Float32bits(dag[pi][i]))
			}
		}
	}
}

// TestDAGInvariance is the package-level convergence-invariance gate for
// the operator DAG scheduler: on nets exercising scratch folds,
// serialization edges and the RNG chain, DAG training must produce
// bitwise-identical parameters to serial training, with and without the
// host pool.
func TestDAGInvariance(t *testing.T) {
	builders := map[string]func(testing.TB, int, int64) *Net{
		"branchy":      buildBranchyNet,
		"sharedbottom": buildSharedBottomConvNet,
		"dropbranch":   buildDropoutBranchNet,
		"chain":        buildTinyNet, // wavefront 1 → serial fallback path
	}
	pool := hostpool.New(4)
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			serial := trainParams(t, build(t, 4, 5), false, 2, nil, 4)
			dag := trainParams(t, build(t, 4, 5), true, 2, nil, 4)
			assertBitsEqual(t, serial, dag, name+"/dag")
			pooled := trainParams(t, build(t, 4, 5), true, 2, pool, 4)
			assertBitsEqual(t, serial, pooled, name+"/dag+pool")
		})
	}
}

// TestDAGStatsShapes pins the parallelism statistics of known topologies.
func TestDAGStatsShapes(t *testing.T) {
	chain := buildTinyNet(t, 2, 1)
	st, err := chain.DAGStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxWavefront != 1 || st.FwdDepth != st.Layers {
		t.Fatalf("tiny chain should be a chain, got %+v", st)
	}
	if len(st.CriticalPath) != st.Layers {
		t.Fatalf("chain critical path %v", st.CriticalPath)
	}

	branchy := buildBranchyNet(t, 2, 1)
	st, err = branchy.DAGStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxWavefront < 2 {
		t.Fatalf("branchy net reports no forward parallelism: %+v", st)
	}
	if st.MaxBwdWavefront < 2 {
		t.Fatalf("branchy net reports no backward parallelism: %+v", st)
	}
	if st.FwdDepth >= st.Layers {
		t.Fatalf("branchy depth %d should beat layer count %d", st.FwdDepth, st.Layers)
	}

	// The shared-bottom conv net must serialize conv_a/conv_b in backward
	// (non-add-once consumers) while keeping forward parallelism.
	shared := buildSharedBottomConvNet(t, 2, 1)
	d := shared.prog.dag
	if len(d.folds) != 0 {
		t.Fatalf("conv consumers must not scratch-fold: %+v", d.folds)
	}
	if d.stats.MaxWavefront < 2 {
		t.Fatalf("shared-bottom net should have forward parallelism: %+v", d.stats)
	}
	// conv_b (entry 2) must precede conv_a (entry 1) in backward: edge 2→1.
	found := false
	for _, dep := range d.nodes[1].bwdDeps {
		if dep == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing serialization edge conv_b→conv_a: %+v", d.nodes[1])
	}

	// The branchy net's shared blob t folds (both consumers add-once).
	db := branchy.prog.dag
	foldBlobs := map[string]bool{}
	for _, g := range db.folds {
		foldBlobs[g.blob] = true
	}
	if !foldBlobs["t"] {
		t.Fatalf("blob t (relu+sigmoid consumers) should scratch-fold, folds: %+v", db.folds)
	}
}

// TestDAGShareParamsInvalidates verifies parameter sharing recompiles the
// program with the owners' backward passes serialized.
func TestDAGShareParamsInvalidates(t *testing.T) {
	ctx := NewContext(HostLauncher{}, 3)
	cc := Conv(3, 3, 1, 1)
	cc.Seed = 3
	cc2 := Conv(3, 3, 1, 1)
	cc2.Seed = 4
	ic := IP(2)
	ic.Seed = 5
	net, err := NewNet("twins").
		Input("data", 2, 2, 6, 6).
		Input("label", 2).
		Add(NewConv("conv_a", cc), []string{"data"}, []string{"a"}).
		Add(NewConv("conv_b", cc2), []string{"data"}, []string{"b"}).
		Add(NewConcat("concat"), []string{"a", "b"}, []string{"c"}).
		Add(NewIP("ip", ic), []string{"c"}, []string{"scores"}).
		Add(NewSoftmaxLoss("loss"), []string{"scores", "label"}, []string{"loss"}).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d := net.prog.dag
	if len(d.nodes[0].bwdDeps) != 1 { // only concat feeds conv_a's backward
		t.Fatalf("unexpected pre-share deps: %+v", d.nodes[0])
	}
	if err := net.ShareParams("conv_a", "conv_b"); err != nil {
		t.Fatal(err)
	}
	d = net.prog.dag
	found := false
	for _, dep := range d.nodes[0].bwdDeps {
		if dep == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ShareParams did not add the conv_b→conv_a backward edge: %+v", d.nodes[0])
	}
}
