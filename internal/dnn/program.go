package dnn

import (
	"fmt"
	"sort"

	"repro/internal/hostpool"
	"repro/internal/tensor"
)

// program is a net compiled for execution: the ops in definition
// (topological) order, the dependency DAG over them with its prebuilt
// "<layer>/fwd|bwd" keys, the real blob behind every scratch-fold group, and
// the lists every step walks (distinct parameters, sorted inputs). A Net
// compiles its program at Build and again after ShareParams; a FrozenNet is a
// forward-only program with the training-only ops stripped. Both run through
// the one executor below. A program is immutable once compiled.
type program struct {
	label   string // error prefix: "net <name>" or "dnn: frozen <name>"
	ops     []entry
	dag     *layerDAG
	foldDst []*Blob  // parallel to dag.folds
	params  []*Blob  // distinct learnable blobs, first-owner order
	owners  [][]int  // parallel to params: the ops holding each, ascending
	inputs  []string // external inputs, sorted (the modeled transfer order)
	inputB  []*Blob  // parallel to inputs
}

// compileProgram builds the program of ops over a blob namespace. A training
// program carries everything backward needs — propagate flags, add-once and
// RNG markers, and serialization of layers that share parameter blobs; a
// forward-only program (training false) has plain data dependencies.
func compileProgram(label string, ops []entry, blobs map[string]*Blob, isInput map[string]bool, inputs []string, training bool) (*program, error) {
	p := &program{label: label, ops: ops, inputs: inputs}
	specs := make([]dagSpec, len(ops))
	paramIdx := map[*Blob]int{}
	for i := range ops {
		e := &ops[i]
		specs[i] = dagSpec{Name: e.layer.Name(), Bottoms: e.bottoms, Tops: e.tops}
		if training {
			_, specs[i].AddOnce = e.layer.(addOnceLayer)
			_, specs[i].UsesRNG = e.layer.(hostRNGLayer)
			specs[i].Propagate = e.propagate
		}
		for _, b := range e.layer.Params() {
			pi, ok := paramIdx[b]
			if !ok {
				pi = len(p.params)
				paramIdx[b] = pi
				p.params = append(p.params, b)
				p.owners = append(p.owners, nil)
			}
			p.owners[pi] = append(p.owners[pi], i)
		}
	}
	// Parameter blobs shared by several layers (Siamese twins via
	// ShareParams) serialize their owners' backward passes.
	var groups [][]int
	if training {
		dedup := map[string]bool{}
		for _, g := range p.owners {
			if key := fmt.Sprint(g); len(g) > 1 && !dedup[key] {
				dedup[key] = true
				groups = append(groups, g)
			}
		}
	}
	var err error
	if p.dag, err = buildLayerDAG(specs, isInput, groups); err != nil {
		return nil, fmt.Errorf("%s: dag: %w", label, err)
	}
	for _, g := range p.dag.folds {
		p.foldDst = append(p.foldDst, blobs[g.blob])
	}
	for _, name := range inputs {
		p.inputB = append(p.inputB, blobs[name])
	}
	return p, nil
}

// checkFilled refuses real math on parameters a timing-only build left
// unfilled (see fillParam): it would silently train zeros.
func checkFilled(label string, params []*Blob) error {
	for _, b := range params {
		if b.unset {
			return fmt.Errorf("%s: parameter %s was never filled or loaded (the net was built timing-only); load weights first", label, b.Name)
		}
	}
	return nil
}

// transferInputs models the host→device copy of every program input through
// the launcher: on its dedicated copy stream when staged is set and it has
// one (InputStager), so copies overlap compute; else on the default stream
// (Uploader); launchers that model no transfers make it a no-op. The copies
// land identical bytes either way — only the simulated timeline differs.
func (p *program) transferInputs(l Launcher, staged bool) error {
	st, _ := l.(InputStager)
	up, _ := l.(Uploader)
	for _, b := range p.inputB {
		n := int64(b.Count()) * 4
		var err error
		switch {
		case staged && st != nil:
			err = st.StageInput(n)
		case up != nil:
			err = up.UploadBytes(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// wavefront returns the session forker a run takes the wavefront scheduler
// with, or nil when it does not — the exact definition-order loop runs
// instead: when the scheduler is off, when the direction's DAG is a chain
// (nothing to overlap), when the launcher is not a LayerSessionForker, or
// when it (GLP4NN's runtime) has not analyzed every op yet: profiling
// iterations run in serial order, so every plan, width and trained bit
// matches a serial run.
func (p *program) wavefront(ctx *Context, backward, dagOn bool) LayerSessionForker {
	chain, keys := p.dag.fwdChain, p.dag.fwdKeys
	if backward {
		chain, keys = p.dag.bwdChain, p.dag.bwdKeys
	}
	if !dagOn || chain {
		return nil
	}
	forker, ok := ctx.L.(LayerSessionForker)
	if !ok || !forker.DAGReady(keys) {
		return nil
	}
	return forker
}

// invoke runs op i in one direction on ctx. bottomB is the op's bottoms, or
// (backward under the wavefront scheduler) their scratch shadows.
func (p *program) invoke(ctx *Context, i int, backward bool, bottomB []*Blob) error {
	e := &p.ops[i]
	if backward {
		ctx.Begin(p.dag.bwdKeys[i])
		if err := e.layer.Backward(ctx, e.topB, e.propagate, bottomB); err != nil {
			return fmt.Errorf("%s: backward %s: %w", p.label, e.layer.Name(), err)
		}
		return nil
	}
	ctx.Begin(p.dag.fwdKeys[i])
	if err := e.layer.Forward(ctx, bottomB, e.topB); err != nil {
		return fmt.Errorf("%s: forward %s: %w", p.label, e.layer.Name(), err)
	}
	return nil
}

// foldScratch is the per-run state of one foldGroup: a private shadow blob
// (shared data, scratch diff) per consumer, folded into the real diff in
// the group's descending-entry order when the last consumer finishes.
type foldScratch struct {
	dst       *Blob
	shadows   []*Blob // parallel to foldGroup.consumers (descending order)
	remaining int
}

// run is the executor: one direction of the program on ctx. Forward runs
// ops in definition order, backward in reverse — either as the direct loop
// (the numeric reference; see wavefront for when) or through the wavefront
// scheduler, which yields identical bits by construction (see dag.go).
// hooks fire after each op's backward retires: in exact reverse order on
// the direct loop, in completion order — after the op's scratch folds — on
// the scheduler goroutine otherwise. The first error is returned, after
// every in-flight op has drained; no hook fires for a failed op or after it.
func (p *program) run(ctx *Context, backward, dagOn bool, hooks []func(layer int)) error {
	if ctx.Compute {
		if err := checkFilled(p.label, p.params); err != nil {
			return err
		}
	}
	nOps := len(p.ops)
	forker := p.wavefront(ctx, backward, dagOn)
	if forker == nil {
		for k := 0; k < nOps; k++ {
			i := k
			if backward {
				i = nOps - 1 - k
			}
			if err := p.invoke(ctx, i, backward, p.ops[i].bottomB); err != nil {
				return err
			}
			if backward {
				for _, fn := range hooks {
					fn(i)
				}
			}
		}
		return nil
	}

	// The wavefront scheduler: a dependency counter per op; every op whose
	// dependencies (and, in backward, whose consumers' scratch folds) have
	// completed is dispatched onto a detached hostpool task, its kernel
	// chains on the context's pool lanes and its streams from a forked
	// launcher session. Ready ops dispatch in ascending index order, bounded
	// by the launcher's concurrency cap.
	d := p.dag
	deps := make([]int, nOps)
	capBase := d.stats.MaxWavefront
	if backward {
		capBase = d.stats.MaxBwdWavefront
	}
	for i := range d.nodes {
		if backward {
			deps[i] = len(d.nodes[i].bwdDeps)
		} else {
			deps[i] = len(d.nodes[i].fwdDeps)
		}
	}

	// Lease and substitute shared-bottom scratch diffs.
	var folds []*foldScratch
	var bufs []*tensor.Buf
	bottoms := make([][]*Blob, nOps)
	if backward && ctx.Compute && len(d.folds) > 0 {
		defer func() { tensor.PutBufs(bufs) }()
		for fi, g := range d.folds {
			blob := p.foldDst[fi]
			fs := &foldScratch{dst: blob, remaining: len(g.consumers)}
			for _, c := range g.consumers {
				buf := tensor.GetZeroBuf(blob.Count())
				bufs = append(bufs, buf)
				shadow := &Blob{
					Name: blob.Name, Data: blob.Data,
					Diff:   tensor.FromSlice(buf.Data, blob.Shape()...),
					LrMult: blob.LrMult, DecayMult: blob.DecayMult,
				}
				fs.shadows = append(fs.shadows, shadow)
				if bottoms[c] == nil {
					bottoms[c] = append([]*Blob(nil), p.ops[c].bottomB...)
				}
				for bi, name := range p.ops[c].bottoms {
					if name == g.blob {
						bottoms[c][bi] = shadow
					}
				}
			}
			folds = append(folds, fs)
		}
	}

	// The wavefront cap is re-queried every scheduling round rather than
	// computed once: a forker backed by the runtime's unified SM budget
	// (core.Runtime.LayerConcurrencyCap) reports the budget *currently*
	// free, which moves as chain streams, copy transfers and serving
	// flushes acquire and release their own shares mid-step.
	capFn := func() int {
		if m := forker.LayerConcurrencyCap(); m > 0 && m < capBase {
			return m
		}
		return capBase // ≥ 2: a chain never reaches the scheduler
	}

	var ready []int // ascending op index
	push := func(id int) {
		at := sort.SearchInts(ready, id)
		ready = append(ready, 0)
		copy(ready[at+1:], ready[at:])
		ready[at] = id
	}
	for i := 0; i < nOps; i++ {
		if deps[i] == 0 {
			push(i)
		}
	}

	subs := ctx.subContexts(nOps)
	group := hostpool.NewGroup(nOps)
	running, finished := 0, 0
	var firstErr error
	for finished < nOps {
		if firstErr == nil {
			for len(ready) > 0 && running < capFn() {
				id := ready[0]
				ready = ready[1:]
				running++
				nb := bottoms[id]
				if nb == nil {
					nb = p.ops[id].bottomB
				}
				group.Go(id, func() error { return p.runNode(ctx, subs[id], forker, id, backward, nb) })
			}
		}
		if running == 0 {
			if firstErr == nil {
				// Unreachable for a validated DAG; fail loudly over hanging.
				firstErr = fmt.Errorf("%s: dag scheduler stalled with %d/%d layers done",
					p.label, finished, nOps)
			}
			break
		}
		res := group.Next()
		running--
		finished++
		if res.Err != nil {
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		if firstErr != nil {
			continue // drain in-flight ops, dispatch nothing new
		}
		// Scratch folds run on the scheduler goroutine the moment their
		// last consumer completes — and before that completion releases
		// the producer below, so the producer always reads a folded diff.
		// folds is empty on forward and timing-only runs (no scratch leased).
		if len(folds) > 0 {
			for _, fi := range d.nodeFolds[res.ID] {
				fs := folds[fi]
				if fs.remaining--; fs.remaining == 0 {
					dst := fs.dst.Diff.Data()
					for _, sh := range fs.shadows {
						src := sh.Diff.Data()
						for i, v := range src {
							dst[i] += v
						}
					}
				}
			}
		}
		succs := d.nodes[res.ID].fwdSuccs
		if backward {
			// Readiness consumers track per-layer retirement, not ordering.
			for _, fn := range hooks {
				fn(res.ID)
			}
			succs = d.nodes[res.ID].bwdSuccs
		}
		for _, s := range succs {
			if deps[s]--; deps[s] == 0 {
				push(s)
			}
		}
	}
	return firstErr
}

// runNode executes one op on nctx, the op's private context: a forked
// launcher session and private chain sets, sharing the phase, RNG, compute
// flag and host pool with the parent.
func (p *program) runNode(ctx, nctx *Context, forker LayerSessionForker, id int, backward bool, bottomB []*Blob) error {
	sub, ok := forker.ForkLayerSession().(Launcher)
	if !ok {
		return fmt.Errorf("%s: launcher %T forked a session that is not a Launcher", p.label, ctx.L)
	}
	nctx.L, nctx.Phase, nctx.RNG, nctx.Compute, nctx.Pool = sub, ctx.Phase, ctx.RNG, ctx.Compute, ctx.Pool
	err := p.invoke(nctx, id, backward, bottomB)
	// Layers end with ctx.Barrier(), which already drained the private
	// chain set; this covers layers (or error paths) that bailed out with
	// closures still in flight, so no kernel can outlive the node and race
	// a dependent layer or a released scratch buffer.
	if derr := nctx.drainChains(); derr != nil && err == nil {
		err = fmt.Errorf("%s: %s chains: %w", p.label, p.ops[id].layer.Name(), derr)
	}
	return err
}
