package dnn

import (
	"fmt"
	"sort"
)

// This file builds the operator-level dependency DAG: the inter-layer
// parallelism axis complementing GLP4NN's intra-layer batch splitting
// (Opara-style operator parallelism). The no-in-place-tops invariant of
// Builder.Add means every blob has exactly one producer, so the layer
// dependency DAG is implicit in the net definition; buildLayerDAG recovers
// it, and the executor's wavefront scheduler (program.go) dispatches every
// ready layer concurrently, while keeping trained parameters bitwise
// identical to serial execution.
//
// The numeric contract (why DAG execution is convergence-invariant):
//
//   - Forward writes are naturally disjoint: each top has one producer and
//     layer-internal state belongs to one layer. Only the host RNG is
//     shared, so RNG-drawing layers are chained in insertion order.
//   - Backward ACCUMULATES (+=) into bottom diffs, and ClearDiffs zeroes
//     every diff first. A blob with one propagating consumer has one
//     writer; a blob with several gets one of two treatments:
//
//     Scratch fold — if every consumer's backward is "add-once" (at most
//     one += per bottom element, e.g. activations, eltwise, concat), each
//     consumer accumulates into a private zeroed scratch diff leased from
//     the tensor arena, and the scratches fold into the real diff in the
//     exact serial consumer order (descending entry index). Bitwise
//     equality holds because a single addition into a zeroed scratch
//     reproduces the addend exactly: partial sums seeded at +0 can never
//     become -0, and x+(+0) ≡ x+(-0) for every reachable x, so
//     diff += (0+v) is bit-identical to diff += v.
//
//     Serialization edges — consumers that add more than once per element
//     (conv's overlapping col2im, pooling windows, IP's per-k axpy) would
//     reassociate the sum under scratch folding ((x⊕b₁)⊕b₂ ≠ x⊕(b₁⊕b₂)),
//     so such consumer sets are chained in descending entry index order,
//     which is exactly the serial backward order.
//
//   - Shared parameters (Siamese twins) always fold through multi-add GEMM
//     paths, so their owning layers are serialization-chained, never
//     scratch-folded.
//   - Loss summation keeps insertion order, and ctx.Begin keys are
//     unchanged, so profiling and replay see the same keys as serial runs.

// dagSpec describes one layer for DAG construction. It is name-based (no
// Layer or Blob references) so the builder can be property-tested on
// synthetic nets.
type dagSpec struct {
	Name      string
	Bottoms   []string
	Tops      []string
	Propagate []bool // per bottom; empty derives !inputs[bottom]
	AddOnce   bool   // backward performs at most one += per bottom element
	UsesRNG   bool   // forward draws from the shared host RNG
}

// dagNode is one layer's dependency record. All slices are sorted and
// deduplicated; forward edges point from lower to higher entry index,
// backward edges from higher to lower (builders add layers topologically).
type dagNode struct {
	fwdDeps, fwdSuccs []int
	bwdDeps, bwdSuccs []int
}

// foldGroup is one shared bottom whose propagating consumers are all
// add-once: each consumer gets a private zeroed scratch diff, folded into
// the real diff in descending entry-index order (the serial order).
type foldGroup struct {
	blob      string
	consumers []int // descending entry index
}

// DAGStats summarizes the inter-layer parallelism available in a net.
type DAGStats struct {
	// Layers is the number of layers (DAG nodes).
	Layers int
	// FwdDepth / BwdDepth are the critical path lengths in layers: the
	// minimum number of sequential steps any scheduler needs.
	FwdDepth, BwdDepth int
	// MaxWavefront / MaxBwdWavefront are the widest set of layers that can
	// execute concurrently (per dependency level).
	MaxWavefront, MaxBwdWavefront int
	// CriticalPath names the layers along one longest forward chain.
	CriticalPath []string
}

func (s DAGStats) String() string {
	return fmt.Sprintf("depth %d/%d layers, max wavefront %d (backward: depth %d, wavefront %d)",
		s.FwdDepth, s.Layers, s.MaxWavefront, s.BwdDepth, s.MaxBwdWavefront)
}

// layerDAG is the built dependency graph of one net.
type layerDAG struct {
	specs []dagSpec
	nodes []dagNode
	folds []foldGroup
	// nodeFolds maps a node index to the fold groups it feeds, so the
	// scheduler can run each fold as soon as its last consumer finishes.
	nodeFolds map[int][]int
	stats     DAGStats
	// fwdChain/bwdChain report a total order: the DAG offers no
	// parallelism for that direction and the serial path runs instead.
	fwdChain, bwdChain bool
	fwdKeys, bwdKeys   []string
}

// edgeSet accumulates deduplicated edges per node.
type edgeSet struct {
	deps  []map[int]bool
	succs []map[int]bool
}

func newEdgeSet(n int) *edgeSet {
	return &edgeSet{deps: make([]map[int]bool, n), succs: make([]map[int]bool, n)}
}

func (e *edgeSet) add(from, to int) {
	if from == to {
		return
	}
	if e.succs[from] == nil {
		e.succs[from] = map[int]bool{}
	}
	if e.deps[to] == nil {
		e.deps[to] = map[int]bool{}
	}
	e.succs[from][to] = true
	e.deps[to][from] = true
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// buildLayerDAG validates the specs and constructs the dependency graph.
// Specs must be in topological (definition) order, like prototxt files and
// Builder.Add: a bottom must be an input or the top of an earlier spec.
// Duplicate tops, undefined bottoms and forward references (which any cycle
// must contain) are rejected with a descriptive error. paramGroups lists
// sets of spec indexes that share parameter blobs; each set is
// serialization-chained in the backward graph.
func buildLayerDAG(specs []dagSpec, inputs map[string]bool, paramGroups [][]int) (*layerDAG, error) {
	n := len(specs)
	producer := map[string]int{}
	for i, sp := range specs {
		for _, t := range sp.Tops {
			if inputs[t] {
				return nil, fmt.Errorf("dag: layer %q top %q is an input blob", sp.Name, t)
			}
			if p, dup := producer[t]; dup {
				return nil, fmt.Errorf("dag: blob %q produced twice (layers %q and %q)",
					t, specs[p].Name, sp.Name)
			}
			producer[t] = i
		}
	}

	fwd := newEdgeSet(n)
	bwd := newEdgeSet(n)
	// propCons collects, per non-input blob, the distinct consumers that
	// propagate a gradient into it; propMulti flags a consumer listing the
	// same blob more than once (two += per element — not add-once for that
	// blob even if the layer is).
	propCons := map[string][]int{}
	propMulti := map[string]bool{}

	for i := range specs {
		sp := &specs[i]
		if len(sp.Propagate) != 0 && len(sp.Propagate) != len(sp.Bottoms) {
			return nil, fmt.Errorf("dag: layer %q has %d bottoms but %d propagate flags",
				sp.Name, len(sp.Bottoms), len(sp.Propagate))
		}
		seen := map[string]bool{}
		for bi, b := range sp.Bottoms {
			if inputs[b] {
				continue
			}
			p, ok := producer[b]
			if !ok {
				return nil, fmt.Errorf("dag: layer %q bottom %q is not an input or any layer's top", sp.Name, b)
			}
			if p >= i {
				return nil, fmt.Errorf("dag: layer %q bottom %q is produced by later layer %q (cycle or out-of-order definition)",
					sp.Name, b, specs[p].Name)
			}
			fwd.add(p, i)
			prop := true
			if len(sp.Propagate) != 0 {
				prop = sp.Propagate[bi]
			}
			if !prop {
				continue
			}
			// The consumer's backward writes b's diff, which the
			// producer's backward reads.
			bwd.add(i, p)
			if seen[b] {
				propMulti[b] = true
				continue
			}
			seen[b] = true
			propCons[b] = append(propCons[b], i)
		}
	}

	// Shared-bottom policy: scratch fold when every propagating consumer is
	// add-once, serialization edges (descending entry index, the serial
	// backward order) otherwise.
	var folds []foldGroup
	blobs := make([]string, 0, len(propCons))
	for b, cons := range propCons {
		if len(cons) > 1 || (len(cons) > 0 && propMulti[b]) {
			blobs = append(blobs, b)
		}
	}
	sort.Strings(blobs)
	for _, b := range blobs {
		cons := append([]int(nil), propCons[b]...)
		sort.Sort(sort.Reverse(sort.IntSlice(cons)))
		fold := !propMulti[b]
		for _, c := range cons {
			if !specs[c].AddOnce {
				fold = false
			}
		}
		if fold {
			folds = append(folds, foldGroup{blob: b, consumers: cons})
			continue
		}
		for j := 0; j+1 < len(cons); j++ {
			bwd.add(cons[j], cons[j+1])
		}
	}

	// Shared parameters: the owners' backward passes all accumulate into
	// the same parameter diffs through multi-add GEMM paths, so they are
	// chained in descending entry index order.
	for _, group := range paramGroups {
		g := append([]int(nil), group...)
		sort.Sort(sort.Reverse(sort.IntSlice(g)))
		for j := 0; j+1 < len(g); j++ {
			if g[j] < 0 || g[j] >= n || g[j+1] < 0 {
				return nil, fmt.Errorf("dag: parameter group index out of range: %v", group)
			}
			bwd.add(g[j], g[j+1])
		}
	}

	// The host RNG is shared mutable state: forward invocations that draw
	// from it are chained in insertion order so the draw sequence matches
	// serial execution exactly.
	prevRNG := -1
	for i := range specs {
		if !specs[i].UsesRNG {
			continue
		}
		if prevRNG >= 0 {
			fwd.add(prevRNG, i)
		}
		prevRNG = i
	}

	d := &layerDAG{specs: specs, folds: folds, nodeFolds: map[int][]int{}}
	d.nodes = make([]dagNode, n)
	for i := range d.nodes {
		d.nodes[i] = dagNode{
			fwdDeps: sortedKeys(fwd.deps[i]), fwdSuccs: sortedKeys(fwd.succs[i]),
			bwdDeps: sortedKeys(bwd.deps[i]), bwdSuccs: sortedKeys(bwd.succs[i]),
		}
	}
	for fi, g := range folds {
		for _, c := range g.consumers {
			d.nodeFolds[c] = append(d.nodeFolds[c], fi)
		}
	}
	d.fwdKeys = make([]string, n)
	d.bwdKeys = make([]string, n)
	for i := range specs {
		d.fwdKeys[i] = fwdKey(specs[i].Name)
		d.bwdKeys[i] = bwdKey(specs[i].Name)
	}
	d.computeStats()
	return d, nil
}

// computeStats derives depth, wavefront and critical path from the edges.
// A direction whose max wavefront is 1 is a total order (each dependency
// level holds exactly one node, and consecutive levels must be connected),
// and is flagged as a chain so the scheduler can fall back to the exact
// serial loop.
func (d *layerDAG) computeStats() {
	n := len(d.nodes)
	d.stats = DAGStats{Layers: n}
	if n == 0 {
		d.fwdChain, d.bwdChain = true, true
		return
	}

	// Forward: dependencies have lower indexes, so ascending order is a
	// topological order.
	lvl := make([]int, n)
	pred := make([]int, n)
	for i := 0; i < n; i++ {
		lvl[i], pred[i] = 1, -1
		for _, dep := range d.nodes[i].fwdDeps {
			if lvl[dep]+1 > lvl[i] {
				lvl[i] = lvl[dep] + 1
				pred[i] = dep
			}
		}
	}
	width := map[int]int{}
	deepest := 0
	for i := 0; i < n; i++ {
		width[lvl[i]]++
		if lvl[i] > lvl[deepest] {
			deepest = i
		}
	}
	for _, w := range width {
		if w > d.stats.MaxWavefront {
			d.stats.MaxWavefront = w
		}
	}
	d.stats.FwdDepth = lvl[deepest]
	for i := deepest; i >= 0; i = pred[i] {
		d.stats.CriticalPath = append(d.stats.CriticalPath, d.specs[i].Name)
	}
	for l, r := 0, len(d.stats.CriticalPath)-1; l < r; l, r = l+1, r-1 {
		d.stats.CriticalPath[l], d.stats.CriticalPath[r] = d.stats.CriticalPath[r], d.stats.CriticalPath[l]
	}

	// Backward: dependencies have higher indexes, so descending order is a
	// topological order.
	blvl := make([]int, n)
	bwidth := map[int]int{}
	for i := n - 1; i >= 0; i-- {
		blvl[i] = 1
		for _, dep := range d.nodes[i].bwdDeps {
			if blvl[dep]+1 > blvl[i] {
				blvl[i] = blvl[dep] + 1
			}
		}
		bwidth[blvl[i]]++
		if blvl[i] > d.stats.BwdDepth {
			d.stats.BwdDepth = blvl[i]
		}
	}
	for _, w := range bwidth {
		if w > d.stats.MaxBwdWavefront {
			d.stats.MaxBwdWavefront = w
		}
	}

	d.fwdChain = d.stats.MaxWavefront <= 1
	d.bwdChain = d.stats.MaxBwdWavefront <= 1
}

// LayerSessionForker is the whole DAG side-contract of a launcher: behind
// one that implements only part of it the net runs the exact serial order.
type LayerSessionForker interface {
	// ForkLayerSession returns a per-invocation launcher whose
	// BeginLayer/Launch/Width state is private, so concurrent DAG nodes do
	// not race on the shared launcher. The result is typed any so
	// implementing packages need not import this one; it must implement
	// Launcher, and forks must be safe to use concurrently with each other
	// and with the parent.
	ForkLayerSession() any
	// DAGReady reports whether every given layer key may leave the serial
	// order. A launcher whose plans come from a serial profiling iteration
	// (GLP4NN's runtime) answers true once every key has an analyzed plan,
	// so the profiling iteration — and therefore every plan, width, and
	// trained bit — matches a serial run.
	DAGReady(keys []string) bool
	// LayerConcurrencyCap bounds how many layer sessions are worth running
	// at once (GLP4NN's runtime derives it from the device's
	// concurrent-kernel budget and the widest analyzed plan); ≤ 0 is no
	// cap. The cap changes scheduling throughput only, never results: any
	// topological execution order yields identical bits by construction.
	LayerConcurrencyCap() int
}

// ForkLayerSession implements LayerSessionForker: HostLauncher is
// stateless, so every session is the launcher itself.
func (HostLauncher) ForkLayerSession() any { return HostLauncher{} }

// DAGReady and LayerConcurrencyCap implement LayerSessionForker: nothing is
// profiled, nothing capped.
func (HostLauncher) DAGReady([]string) bool   { return true }
func (HostLauncher) LayerConcurrencyCap() int { return 0 }

// ForkLayerSession implements LayerSessionForker: SerialLauncher holds no
// per-layer state and the device serializes internally, so every session
// is the launcher itself.
func (l SerialLauncher) ForkLayerSession() any { return l }

// DAGReady and LayerConcurrencyCap implement LayerSessionForker: nothing is
// profiled, nothing capped.
func (SerialLauncher) DAGReady([]string) bool   { return true }
func (SerialLauncher) LayerConcurrencyCap() int { return 0 }

// addOnceLayer marks layers whose Backward performs at most one += per
// bottom-diff element (see the numeric contract at the top of this file).
// Layers without the marker — conv (overlapping col2im), pooling
// (overlapping windows), IP (per-k axpy), LRN, RNN — default to
// serialization edges when they share a bottom.
type addOnceLayer interface {
	addOnceBackward()
}

// hostRNGLayer marks layers whose Forward draws from ctx.RNG.
type hostRNGLayer interface {
	usesHostRNG()
}

// The add-once census. Each marked Backward was audited to write every
// bottom-diff element at most once:
// activations/softmax/flatten/dropout scale or mask the top diff
// elementwise; concat/slice copy disjoint ranges; eltwise writes each
// bottom once (sum/prod) or only the arg-max bottom (max); the loss layers
// write each logit/feature element once; accuracy's backward is a no-op.
func (*ReLULayer) addOnceBackward()            {}
func (*SigmoidLayer) addOnceBackward()         {}
func (*TanHLayer) addOnceBackward()            {}
func (*ELULayer) addOnceBackward()             {}
func (*SoftmaxLayer) addOnceBackward()         {}
func (*FlattenLayer) addOnceBackward()         {}
func (*DropoutLayer) addOnceBackward()         {}
func (*ConcatLayer) addOnceBackward()          {}
func (*SliceLayer) addOnceBackward()           {}
func (*EltwiseLayer) addOnceBackward()         {}
func (*SoftmaxLossLayer) addOnceBackward()     {}
func (*EuclideanLossLayer) addOnceBackward()   {}
func (*ContrastiveLossLayer) addOnceBackward() {}
func (*AccuracyLayer) addOnceBackward()        {}

func (*DropoutLayer) usesHostRNG() {}

// EnableDAG lets Forward and Backward take the executor's wavefront
// scheduler, which dispatches independent layers concurrently (see
// program.wavefront for when it applies; otherwise they run the exact serial
// order). Trained parameters are bitwise identical either way.
func (n *Net) EnableDAG(on bool) { n.dagOn = on }

// DAGEnabled reports whether the operator DAG scheduler is active.
func (n *Net) DAGEnabled() bool { return n.dagOn }

// DAGStats returns the parallelism statistics of the net's dependency DAG.
func (n *Net) DAGStats() (DAGStats, error) {
	if !n.built {
		return DAGStats{}, fmt.Errorf("net %s: not built", n.name)
	}
	return n.prog.dag.stats, nil
}
