package dnn

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// This file is the freeze path of the train→freeze→serve pipeline: Freeze
// turns a trained Net into a forward-only FrozenNet.
// Freezing drops everything inference does not need — loss and accuracy
// layers (and therefore the label/similarity inputs only they consume),
// dropout layers (identity at test time, so their tops alias their bottoms
// and not even the copy kernel is launched), and, via Compact, the gradient
// half of every blob. What remains is exactly the Test-phase forward
// kernel stream of the remaining layers, so frozen outputs are bitwise
// identical to the training net run in the Test phase — the inference face
// of the repo's convergence-invariance contract.
//
// A frozen net is the net's forward program minus its training-only ops,
// run through the same executor as training (program.go): independent layers
// (inception branches, Siamese towers) dispatch as concurrent wavefronts
// under the same conditions. Forward-only bit-identity needs no fold-order
// bookkeeping: every top has one producer and nothing accumulates.

// FrozenNet is the forward-only executor produced by Freeze. It shares layer
// objects and parameter storage with the source net; run it through any
// Launcher exactly like a Net, but only forward. A FrozenNet forces the Test
// phase internally and draws nothing from the context RNG, so outputs depend
// only on the weights and the inputs.
type FrozenNet struct {
	name    string
	prog    *program // surviving ops, bottoms resolved through dropout aliases
	blobs   map[string]*Blob
	outputs []string // terminal tops, sorted
	dagOn   bool
	ctx     Context // the Test-phase view of the caller's context, reused by Forward
}

// Freeze builds a forward-only executor from a built net: loss and
// accuracy layers are stripped, dropout layers fold to identity (their
// tops alias their bottoms), and inputs consumed only by stripped layers
// (labels, pair similarity) disappear from the program. The frozen net shares
// parameters and activation storage with the source — freezing copies no
// weights — and inherits the net's DAG setting.
func Freeze(n *Net) (*FrozenNet, error) {
	if !n.built {
		return nil, fmt.Errorf("dnn: freeze %s: net not built", n.name)
	}
	f := &FrozenNet{name: n.name, blobs: map[string]*Blob{}, dagOn: n.dagOn}
	// alias maps a dropped layer's top to the live blob its consumers
	// should read instead (transitive, for stacked dropouts).
	alias := map[string]string{}
	resolve := func(name string) string {
		for {
			a, ok := alias[name]
			if !ok {
				return name
			}
			name = a
		}
	}
	var ops []entry
	consumed := map[string]bool{}
	produced := map[string]bool{}
	for i := range n.entries {
		e := &n.entries[i]
		if _, isLoss := e.layer.(LossLayer); isLoss {
			continue
		}
		if _, isAcc := e.layer.(*AccuracyLayer); isAcc {
			continue
		}
		if _, isDrop := e.layer.(*DropoutLayer); isDrop && len(e.bottoms) == 1 && len(e.tops) == 1 {
			// Identity at test time: downstream consumers read the bottom
			// directly and the copy kernel never launches. Identical bytes,
			// one less kernel.
			alias[e.tops[0]] = resolve(e.bottoms[0])
			continue
		}
		op := entry{layer: e.layer, tops: e.tops, topB: e.topB}
		for _, name := range e.bottoms {
			rn := resolve(name)
			blob := n.blobs[rn]
			if blob == nil {
				return nil, fmt.Errorf("dnn: freeze %s: layer %s bottom %q unresolved", n.name, e.layer.Name(), rn)
			}
			op.bottoms = append(op.bottoms, rn)
			op.bottomB = append(op.bottomB, blob)
			f.blobs[rn] = blob
			consumed[rn] = true
		}
		for ti, name := range e.tops {
			f.blobs[name] = e.topB[ti]
			produced[name] = true
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("dnn: freeze %s: no layers survive freezing", n.name)
	}
	var inputs []string
	for _, name := range n.prog.inputs {
		if consumed[name] {
			inputs = append(inputs, name)
		}
	}
	for name := range produced {
		if !consumed[name] {
			f.outputs = append(f.outputs, name)
		}
	}
	sort.Strings(f.outputs)
	var err error
	f.prog, err = compileProgram("dnn: frozen "+n.name, ops, f.blobs, n.inputs, inputs, false)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Name returns the source net's name.
func (f *FrozenNet) Name() string { return f.name }

// Inputs returns the program's external input blob names, sorted. Inputs the
// training net fed only to stripped layers (labels) are absent.
func (f *FrozenNet) Inputs() []string { return append([]string(nil), f.prog.inputs...) }

// Outputs returns the program's terminal blob names, sorted: every top no
// surviving layer consumes (e.g. "scores"; the Siamese pair "feat",
// "feat_p").
func (f *FrozenNet) Outputs() []string { return append([]string(nil), f.outputs...) }

// Blob returns the named program blob, or nil.
func (f *FrozenNet) Blob(name string) *Blob { return f.blobs[name] }

// Batch returns the leading dimension of the first input blob — the device
// batch size every Forward processes.
func (f *FrozenNet) Batch() int {
	if len(f.prog.inputB) == 0 {
		return 0
	}
	return f.prog.inputB[0].Num()
}

// EnableDAG lets Forward take the executor's wavefront scheduler, like
// Net.EnableDAG (inherited from the source net at Freeze time). Outputs are
// bitwise identical either way.
func (f *FrozenNet) EnableDAG(on bool) { f.dagOn = on }

// DAGStats returns the forward-parallelism statistics of the frozen program.
func (f *FrozenNet) DAGStats() DAGStats { return f.prog.dag.stats }

// SetInput copies values into the named input blob, exactly like
// Net.SetInputData.
func (f *FrozenNet) SetInput(name string, values []float32) error {
	b := f.blobs[name]
	if b == nil {
		return fmt.Errorf("dnn: frozen %s: no blob %q", f.name, name)
	}
	ok := false
	for _, in := range f.prog.inputs {
		if in == name {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("dnn: frozen %s: blob %q is not an input", f.name, name)
	}
	if len(values) != b.Count() {
		return fmt.Errorf("dnn: frozen %s: input %q wants %d values, got %d", f.name, name, b.Count(), len(values))
	}
	copy(b.Data.Data(), values)
	return nil
}

// Output returns the data of the named output blob (any program blob
// resolves, so intermediate activations can be inspected too).
func (f *FrozenNet) Output(name string) ([]float32, error) {
	b := f.blobs[name]
	if b == nil {
		return nil, fmt.Errorf("dnn: frozen %s: no blob %q", f.name, name)
	}
	return b.Data.Data(), nil
}

// StageInputs is Net.StageInputs for the frozen program. Dropped inputs
// (labels) transfer nothing, exactly as a serving path should.
func (f *FrozenNet) StageInputs(ctx *Context) error {
	return f.prog.transferInputs(ctx.L, true)
}

// Forward runs the frozen program. The context's phase is ignored — a frozen
// net always executes Test-phase semantics — and the context RNG is never
// drawn. Outputs are bitwise identical whichever branch the executor takes.
func (f *FrozenNet) Forward(ctx *Context) error {
	fctx := &f.ctx
	fctx.L, fctx.Phase, fctx.RNG, fctx.Compute, fctx.Pool = ctx.L, Test, ctx.RNG, ctx.Compute, ctx.Pool
	if err := f.prog.run(fctx, false, f.dagOn, nil); err != nil {
		return err
	}
	return fctx.drainChains()
}

// Compact releases the gradient storage of every program blob and parameter
// — the memory a served model no longer needs. Irreversible, and shared with
// the source net: after Compact the source must not run Backward or a
// solver update. Returns the number of float32 gradient elements freed.
func (f *FrozenNet) Compact() int {
	freed := 0
	drop := func(b *Blob) {
		if b.Diff != nil && b.Diff.Len() > 0 {
			freed += b.Diff.Len()
			b.Diff = tensor.New(0)
		}
	}
	for _, b := range f.blobs {
		drop(b)
	}
	for _, p := range f.prog.params {
		drop(p)
	}
	return freed
}
