package dnn

import (
	"fmt"
	"sort"
	"strings"
)

// entry wires one layer into the net's blob namespace.
type entry struct {
	layer     Layer
	bottoms   []string
	tops      []string
	bottomB   []*Blob
	topB      []*Blob
	propagate []bool
}

// Net is a feed-forward DAG of layers over named blobs, Caffe-style. Layers
// execute in insertion order for Forward and reverse order for Backward
// (builders add layers topologically, as prototxt files do).
type Net struct {
	name    string
	blobs   map[string]*Blob
	inputs  map[string]bool
	entries []entry
	built   bool

	// prog is the compiled step program every Forward/Backward runs (see
	// program.go); non-nil once built. dagOn lets the executor take its
	// wavefront scheduler (see dag.go).
	prog  *program
	dagOn bool

	// fusionOn records whether EnableFusion activated any fused GEMM
	// epilogues (see fusion.go).
	fusionOn bool

	// bwdHooks are the gradient-ready observers fired by OnLayerBackward
	// registrations as backward retires each layer (see that method for the
	// ordering contract).
	bwdHooks []func(layer int)
}

// Name returns the net's name.
func (n *Net) Name() string { return n.name }

// Blob returns the named blob, or nil.
func (n *Net) Blob(name string) *Blob { return n.blobs[name] }

// Layers returns the layers in forward order.
func (n *Net) Layers() []Layer {
	out := make([]Layer, len(n.entries))
	for i, e := range n.entries {
		out[i] = e.layer
	}
	return out
}

// LayerByName returns the named layer, or nil.
func (n *Net) LayerByName(name string) Layer {
	for _, e := range n.entries {
		if e.layer.Name() == name {
			return e.layer
		}
	}
	return nil
}

// Params returns every distinct learnable blob (shared parameters are
// deduplicated). The slice is the program's own: read it, do not modify it.
func (n *Net) Params() []*Blob {
	if !n.built {
		return nil
	}
	return n.prog.params
}

// LayerCount returns the number of layer entries in forward order.
func (n *Net) LayerCount() int { return len(n.entries) }

// ParamOwners returns, for each parameter in Params() order, the entry
// indices (forward order) of every layer that owns it. Most parameters have
// one owner; shared parameters (ShareParams, e.g. Siamese towers) list every
// sharing layer, each of which accumulates into the blob's diff during
// backward. A parameter's gradient is final once *all* of its owner layers
// have retired their backward — the readiness condition gradient-bucketing
// consumers (internal/parallel's overlapped all-reduce) build on. The slices
// are the program's own: do not modify them.
func (n *Net) ParamOwners() [][]int {
	if !n.built {
		return nil
	}
	return n.prog.owners
}

// OnLayerBackward registers fn to be called after each layer entry finishes
// its backward pass, with the entry's forward-order index. Contract:
//
//   - Serial backward fires hooks in exact reverse insertion order; the DAG
//     scheduler fires them in completion order on its scheduler goroutine,
//     after the node's scratch folds are applied. Either way, when the hook
//     for layer i fires, every gradient write layer i performs (its own
//     params and bottom diffs) has fully retired on the host.
//   - Hooks for one net fire serially (never concurrently with each other)
//     and must not call back into the net.
//   - Hooks fire on success only; a failing backward skips the remaining
//     layers' hooks and returns the error.
//
// Registrations are append-only and cheap to leave in place; a net with no
// hooks pays nothing.
func (n *Net) OnLayerBackward(fn func(layer int)) {
	n.bwdHooks = append(n.bwdHooks, fn)
}

// SetInputData copies values into the named input blob.
func (n *Net) SetInputData(name string, values []float32) error {
	b := n.blobs[name]
	if b == nil {
		return fmt.Errorf("net %s: no blob %q", n.name, name)
	}
	if !n.inputs[name] {
		return fmt.Errorf("net %s: blob %q is not an input", n.name, name)
	}
	if len(values) != b.Count() {
		return fmt.Errorf("net %s: input %q wants %d values, got %d", n.name, name, b.Count(), len(values))
	}
	copy(b.Data.Data(), values)
	return nil
}

// UploadInputs models the host→device transfer of every input blob on the
// launcher's default stream (a no-op for launchers without transfer
// modeling). Call it after SetInputData when input-copy time should appear on
// the simulated timeline.
func (n *Net) UploadInputs(ctx *Context) error {
	if !n.built {
		return fmt.Errorf("net %s: not built", n.name)
	}
	return n.prog.transferInputs(ctx.L, false)
}

// StageInputs is UploadInputs through the launcher's dedicated copy stream
// when it has one (InputStager), so input copies overlap compute.
func (n *Net) StageInputs(ctx *Context) error {
	if !n.built {
		return fmt.Errorf("net %s: not built", n.name)
	}
	return n.prog.transferInputs(ctx.L, true)
}

// InputNames returns the input blob names in sorted order — the
// deterministic order modeled transfers and the elastic trainer's shard
// stashes iterate in. The slice is the program's own: do not modify it.
func (n *Net) InputNames() []string {
	if !n.built {
		return nil
	}
	return n.prog.inputs
}

// ClearDiffs zeroes all blob and parameter gradients; call at the start of
// each iteration (Backward accumulates).
func (n *Net) ClearDiffs() {
	for _, b := range n.blobs {
		b.ZeroDiff()
	}
	for _, p := range n.Params() {
		p.ZeroDiff()
	}
}

// Forward runs all layers and returns the weighted sum of loss-layer
// outputs, summed in insertion order. With ctx.Compute disabled the returned
// loss is meaningless (the kernel stream is still exact). With
// EnableDAG(true) independent layers execute concurrently through the
// executor's wavefront scheduler; trained numerics are bitwise identical
// either way.
func (n *Net) Forward(ctx *Context) (float64, error) {
	if !n.built {
		return 0, fmt.Errorf("net %s: not built", n.name)
	}
	if err := n.prog.run(ctx, false, n.dagOn, nil); err != nil {
		return 0, err
	}
	loss := 0.0
	for i := range n.entries {
		e := &n.entries[i]
		if ll, ok := e.layer.(LossLayer); ok {
			loss += float64(ll.LossWeight()) * float64(e.topB[0].Data.Data()[0])
		}
	}
	return loss, nil
}

// Backward runs all layers in reverse, accumulating gradients, through the
// same executor as Forward.
func (n *Net) Backward(ctx *Context) error {
	if !n.built {
		return fmt.Errorf("net %s: not built", n.name)
	}
	return n.prog.run(ctx, true, n.dagOn, n.bwdHooks)
}

// ForwardBackward is one full pass: clear diffs, forward, backward. A
// timing-only pass (ctx.Compute off) runs no kernel closure, so it neither
// reads nor accumulates into a gradient and leaves them all as they are.
func (n *Net) ForwardBackward(ctx *Context) (float64, error) {
	if ctx.Compute {
		n.ClearDiffs()
	}
	loss, err := n.Forward(ctx)
	if err != nil {
		return 0, err
	}
	return loss, n.Backward(ctx)
}

// OutputValue returns element 0 of the named blob's data (scalar outputs
// such as loss and accuracy).
func (n *Net) OutputValue(blob string) (float32, error) {
	b := n.blobs[blob]
	if b == nil {
		return 0, fmt.Errorf("net %s: no blob %q", n.name, blob)
	}
	return b.Data.Data()[0], nil
}

// ShareParams makes dst use src's parameter blobs (Caffe's named-parameter
// sharing, used by the Siamese twins). Both layers must implement
// ParamSharer and agree on shapes.
func (n *Net) ShareParams(src, dst string) error {
	s := n.LayerByName(src)
	d := n.LayerByName(dst)
	if s == nil || d == nil {
		return fmt.Errorf("net %s: ShareParams: unknown layer %q or %q", n.name, src, dst)
	}
	sharer, ok := d.(ParamSharer)
	if !ok {
		return fmt.Errorf("net %s: layer %q cannot share parameters", n.name, dst)
	}
	if err := sharer.ShareParamsWith(s); err != nil {
		return err
	}
	// Sharing changes the parameter list and adds backward serialization
	// edges between the owners; the compiled program has neither.
	return n.compile()
}

// ParamSharer is implemented by layers that support Caffe-style parameter
// sharing.
type ParamSharer interface {
	ShareParamsWith(src Layer) error
}

// ShareParamsWith implements ParamSharer for convolution.
func (l *ConvLayer) ShareParamsWith(src Layer) error {
	s, ok := src.(*ConvLayer)
	if !ok {
		return fmt.Errorf("conv %s: cannot share with %T", l.name, src)
	}
	if s.weight.Count() != l.weight.Count() {
		return fmt.Errorf("conv %s: weight shape mismatch with %s", l.name, s.name)
	}
	l.weight = s.weight
	l.param = []*Blob{l.weight}
	if l.bias != nil && s.bias != nil {
		if s.bias.Count() != l.bias.Count() {
			return fmt.Errorf("conv %s: bias shape mismatch with %s", l.name, s.name)
		}
		l.bias = s.bias
		l.param = append(l.param, l.bias)
	}
	return nil
}

// ShareParamsWith implements ParamSharer for inner product.
func (l *IPLayer) ShareParamsWith(src Layer) error {
	s, ok := src.(*IPLayer)
	if !ok {
		return fmt.Errorf("ip %s: cannot share with %T", l.name, src)
	}
	if s.weight.Count() != l.weight.Count() {
		return fmt.Errorf("ip %s: weight shape mismatch with %s", l.name, s.name)
	}
	l.weight = s.weight
	l.param = []*Blob{l.weight}
	if l.bias != nil && s.bias != nil {
		l.bias = s.bias
		l.param = append(l.param, l.bias)
	}
	return nil
}

// Builder assembles a Net. Add layers in topological order; Build runs
// Setup for each with bottoms resolved.
type Builder struct {
	net *Net
	err error
}

// NewNet starts a builder.
func NewNet(name string) *Builder {
	return &Builder{net: &Net{
		name:   name,
		blobs:  map[string]*Blob{},
		inputs: map[string]bool{},
	}}
}

// Input declares an externally fed blob (data, labels).
func (b *Builder) Input(name string, shape ...int) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.net.blobs[name]; dup {
		b.err = fmt.Errorf("net %s: duplicate blob %q", b.net.name, name)
		return b
	}
	b.net.blobs[name] = NewBlob(name, shape...)
	b.net.inputs[name] = true
	return b
}

// Add wires a layer from bottoms to tops. Top blobs are created on first
// use; reusing an existing blob name as a top is an error (no in-place
// layers — backward accumulation relies on distinct blobs).
func (b *Builder) Add(layer Layer, bottoms, tops []string) *Builder {
	if b.err != nil {
		return b
	}
	e := entry{layer: layer, bottoms: bottoms, tops: tops}
	for _, name := range bottoms {
		blob := b.net.blobs[name]
		if blob == nil {
			b.err = fmt.Errorf("net %s: layer %s: unknown bottom %q", b.net.name, layer.Name(), name)
			return b
		}
		e.bottomB = append(e.bottomB, blob)
		// Gradients never flow into externally fed inputs.
		e.propagate = append(e.propagate, !b.net.inputs[name])
	}
	for _, name := range tops {
		if _, dup := b.net.blobs[name]; dup {
			b.err = fmt.Errorf("net %s: layer %s: top %q already exists (in-place unsupported)",
				b.net.name, layer.Name(), name)
			return b
		}
		blob := NewBlob(name)
		b.net.blobs[name] = blob
		e.topB = append(e.topB, blob)
	}
	b.net.entries = append(b.net.entries, e)
	return b
}

// Build runs Setup on every layer in order and returns the finished net.
func (b *Builder) Build(ctx *Context) (*Net, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.net.entries {
		e := &b.net.entries[i]
		if err := e.layer.Setup(ctx, e.bottomB, e.topB); err != nil {
			return nil, fmt.Errorf("net %s: setup %s: %w", b.net.name, e.layer.Name(), err)
		}
	}
	b.net.built = true
	if err := b.net.compile(); err != nil {
		return nil, err
	}
	return b.net, nil
}

// compile (re)builds the net's step program from its entries.
func (n *Net) compile() error {
	inputs := make([]string, 0, len(n.inputs))
	for name := range n.inputs {
		inputs = append(inputs, name)
	}
	sort.Strings(inputs)
	var err error
	n.prog, err = compileProgram("net "+n.name, n.entries, n.blobs, n.inputs, inputs, true)
	return err
}

// Summary renders a human-readable table of layers and blob shapes.
func (n *Net) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "net %q: %d layers, %d blobs\n", n.name, len(n.entries), len(n.blobs))
	params := 0
	for _, p := range n.Params() {
		params += p.Count()
	}
	for _, e := range n.entries {
		tops := make([]string, 0, len(e.topB))
		for _, t := range e.topB {
			tops = append(tops, fmt.Sprintf("%s%v", t.Name, t.Shape()))
		}
		fmt.Fprintf(&sb, "  %-16s %-16s %s → %s\n",
			e.layer.Name(), e.layer.Type(), strings.Join(e.bottoms, ","), strings.Join(tops, ","))
	}
	fmt.Fprintf(&sb, "  total learnable parameters: %d\n", params)
	if st, err := n.DAGStats(); err == nil && st.Layers > 0 {
		fmt.Fprintf(&sb, "  inter-layer DAG: %s\n", st)
		fmt.Fprintf(&sb, "  critical path: %s\n", strings.Join(st.CriticalPath, " → "))
	}
	if sites := n.FusionPlan(); len(sites) > 0 {
		state := "off; Net.EnableFusion activates"
		if n.fusionOn {
			state = "enabled"
		}
		descs := make([]string, len(sites))
		for i, s := range sites {
			descs[i] = s.String()
		}
		fmt.Fprintf(&sb, "  fusable epilogues (%s): %d sites: %s\n", state, len(sites), strings.Join(descs, ", "))
	}
	return sb.String()
}
