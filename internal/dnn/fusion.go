package dnn

import "fmt"

// This file is the operator-fusion pass: collapsing a GEMM layer's separate
// output passes (the gemmk bias rank-one update, the relu_fwd elementwise
// kernel) into the GEMM's fused epilogue (tensor.GemmEpilogue), applied to
// each C row segment while it is still cache hot. Three kernel launches and
// two full output-tensor round trips become one launch with zero extra
// traffic.
//
// The numeric contract (why fusion is convergence-invariant):
//
//   - The epilogue is elementwise and runs exactly once per output element,
//     on exactly the value the separate pass would have read — so the fused
//     result is bitwise identical by construction (see tensor.GemmEpilogue).
//   - Conv bias replicates the separate gemmk pass's av==0 screening: a
//     zero bias channel is skipped rather than added, because -0 + (+0) is
//     +0 and would flip the sign bit of negative-zero outputs. IP bias adds
//     unconditionally, because its separate pass's av (the ones vector) is
//     never zero; 1·b[j] is bitwise b[j], so the add is the same operation.
//   - A fused ReLU co-writes max(0, x) into the activation's top while the
//     conv top keeps the exact pre-activation x — every blob holds exactly
//     the bytes it holds unfused, so ReLU backward (which masks on its
//     bottom's data) and every other consumer are untouched.
//   - Ordering: the fused activation's Forward becomes a no-op, but the net
//     still executes it after the producer (its bottom's one producer —
//     serial order and DAG edges both guarantee that), and the producer's
//     barrier retires the epilogue writes first. No consumer can observe a
//     half-written top.
//
// Fusion is opt-in (Net.EnableFusion), like EnableDAG: profiling-oriented
// tests and experiments that pin the unfused kernel stream (im2col → sgemm
// → gemmk) keep seeing it by default.

// FusedSite is one GEMM layer whose separate output passes collapse into
// its fused epilogue.
type FusedSite struct {
	// Layer is the producing GEMM layer (conv or ip).
	Layer string
	// Kind is "conv+bias", "conv+bias+relu", "conv+relu" or "ip+bias".
	Kind string
	// With names the fused-in activation layer; "" for bias-only sites.
	With string
}

func (s FusedSite) String() string {
	if s.With != "" {
		return fmt.Sprintf("%s[%s←%s]", s.Layer, s.Kind, s.With)
	}
	return fmt.Sprintf("%s[%s]", s.Layer, s.Kind)
}

// FusionPlan detects the fusable sites of a built net:
//
//   - every ConvLayer with a bias term fuses the bias; if the conv's top is
//     consumed by exactly one layer and that layer is a ReLU, the activation
//     fuses too;
//   - every IPLayer with a bias term fuses the bias.
//
// The plan reports what EnableFusion(true) would activate; it never
// mutates the net.
func (n *Net) FusionPlan() []FusedSite {
	if !n.built {
		return nil
	}
	var sites []FusedSite
	for i := range n.entries {
		e := &n.entries[i]
		switch l := e.layer.(type) {
		case *ConvLayer:
			relu := n.soleReLUConsumer(e.tops[0])
			switch {
			case l.bias != nil && relu != nil:
				sites = append(sites, FusedSite{Layer: l.name, Kind: "conv+bias+relu", With: relu.name})
			case l.bias != nil:
				sites = append(sites, FusedSite{Layer: l.name, Kind: "conv+bias"})
			case relu != nil:
				sites = append(sites, FusedSite{Layer: l.name, Kind: "conv+relu", With: relu.name})
			}
		case *IPLayer:
			if l.bias != nil {
				sites = append(sites, FusedSite{Layer: l.name, Kind: "ip+bias"})
			}
		}
	}
	return sites
}

// soleReLUConsumer returns the ReLU layer that is blob's only consumer, or
// nil. Sole consumption keeps the pairing unambiguous: with several
// consumers the blob is a fan-out point and the activation stays a separate
// step.
func (n *Net) soleReLUConsumer(blob string) *ReLULayer {
	var consumer Layer
	count := 0
	for i := range n.entries {
		for _, b := range n.entries[i].bottoms {
			if b == blob {
				consumer = n.entries[i].layer
				count++
			}
		}
	}
	if count != 1 {
		return nil
	}
	relu, _ := consumer.(*ReLULayer)
	return relu
}

// EnableFusion switches the net's fusable sites between separate output
// passes (off, the default) and fused GEMM epilogues, returning how many
// sites are active. Every blob holds bitwise identical contents either way
// — only the kernel stream changes (one fused sgemm replaces sgemm + gemmk
// + relu_fwd). Safe to toggle between iterations; layer flags are reset on
// every call.
func (n *Net) EnableFusion(on bool) int {
	for i := range n.entries {
		switch l := n.entries[i].layer.(type) {
		case *ConvLayer:
			l.fuseBias, l.fusedReLU = false, nil
		case *IPLayer:
			l.fuseBias = false
		case *ReLULayer:
			l.fusedInput = false
		}
	}
	n.fusionOn = false
	if !on {
		return 0
	}
	sites := n.FusionPlan()
	for _, s := range sites {
		switch l := n.LayerByName(s.Layer).(type) {
		case *ConvLayer:
			l.fuseBias = l.bias != nil
			if s.With != "" {
				relu := n.LayerByName(s.With).(*ReLULayer)
				relu.fusedInput = true
				l.fusedReLU = n.topBlobOf(s.With)
			}
		case *IPLayer:
			l.fuseBias = true
		}
	}
	n.fusionOn = len(sites) > 0
	return len(sites)
}

// FusionEnabled reports whether fused epilogues are active.
func (n *Net) FusionEnabled() bool { return n.fusionOn }

// topBlobOf returns the named layer's first top blob.
func (n *Net) topBlobOf(layer string) *Blob {
	for i := range n.entries {
		if n.entries[i].layer.Name() == layer {
			return n.entries[i].topB[0]
		}
	}
	return nil
}
