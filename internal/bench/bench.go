// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (and the motivation figures of Section 2.2) it
// provides a registered experiment that regenerates the corresponding rows
// or series on the simulated devices. cmd/glp4nn-bench is the CLI front
// end.
//
// Absolute times come from the simulator and will not equal the authors'
// testbed; the reproduction targets the paper's shapes: who wins, by
// roughly what factor, and where concurrency stops paying (see
// EXPERIMENTS.md for the recorded comparison).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// Config tunes an experiment run.
type Config struct {
	// Devices restricts the simulated GPUs (paper default: K40C, P100,
	// TitanXP).
	Devices []string
	// Networks restricts the workloads (paper default: all four).
	Networks []string
	// Iterations is the number of measured timing iterations.
	Iterations int
	// Seed drives all synthetic data and initialization.
	Seed int64
	// Quick shrinks batch sizes and sweep ranges so the experiment smoke-
	// runs in seconds (used by unit tests).
	Quick bool
	// ConvergenceIters overrides the Fig. 11 training length.
	ConvergenceIters int
}

// withDefaults fills the zero value with paper defaults.
func (c Config) withDefaults() Config {
	if len(c.Devices) == 0 {
		c.Devices = []string{"K40C", "P100", "TitanXP"}
	}
	if len(c.Networks) == 0 {
		c.Networks = append([]string(nil), models.Names...)
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ConvergenceIters <= 0 {
		c.ConvergenceIters = 300
		if c.Quick {
			c.ConvergenceIters = 12
		}
	}
	return c
}

func (c Config) batchFor(w *models.Workload) int {
	if c.Quick {
		switch {
		case w.DefaultBatch >= 256:
			return 16
		case w.DefaultBatch >= 100:
			return 16
		default:
			return 8
		}
	}
	return w.DefaultBatch
}

// rowBatch is the batch of a single-layer experiment on one Table 5 row: the
// row's own, 8 under -quick.
func (c Config) rowBatch(row models.LayerRow) int {
	if c.Quick {
		return 8
	}
	return row.N
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports, for EXPERIMENTS.md context
	Run   func(cfg Config, w io.Writer) error
}

// registry is the paper's evaluation in the order the paper presents it:
// the static tables, the Section 2.2 motivation figures, then Section 4.
var registry = []*Experiment{
	{
		ID:    "table1",
		Title: "Table 1: overview of GPU architecture features",
		Paper: "Tesla..Volta feature matrix; max concurrent kernels 1/16/32/16/128/128",
		Run:   runTable1,
	},
	{
		ID:    "table3",
		Title: "Table 3: hardware profile",
		Paper: "K40C (Kepler, 15×192), P100 (Pascal, 56×64), Titan XP (Pascal, 30×128)",
		Run:   runTable3,
	},
	{
		ID:    "table4",
		Title: "Table 4: test datasets",
		Paper: "MNIST 60k/10k 28×28 ×10; CIFAR-10 50k/10k 32×32 ×10; ImageNet 1.2M/150k 256×256 ×1000",
		Run:   runTable4,
	},
	{
		ID:    "table5",
		Title: "Table 5: layers of DNNs used in this paper",
		Paper: "conv geometry for CIFAR10, Siamese, CaffeNet and six GoogLeNet units",
		Run:   runTable5,
	},
	{
		ID:    "fig2",
		Title: "Fig. 2: speedup of CaffeNet's convolution layers on P100 vs stream count",
		Paper: "conv2-conv5 gain up to ~2-4x from multi-stream execution; conv1 gains least",
		Run:   runFig2,
	},
	{
		ID:    "fig3",
		Title: "Fig. 3: timeline of conv1 kernels (MNIST) with multiple CUDA streams",
		Paper: "im2col/sgemm/gemmk chains overlap across streams instead of serializing",
		Run:   runFig3,
	},
	{
		ID:    "fig4",
		Title: "Fig. 4: best observed number of concurrent streams per CaffeNet layer",
		Paper: "optimum varies per layer and per GPU (roughly 4-32), never 'as many as possible'",
		Run:   runFig4,
	},
	{
		ID:    "fig7",
		Title: "Fig. 7: speedup of GLP4NN-Caffe over naive Caffe per training iteration",
		Paper: "most nets gain 1.1-4x; Siamese gains most on K40C; gains vary per GPU",
		Run:   runFig7,
	},
	{
		ID:    "fig8",
		Title: "Fig. 8: number of streams chosen by the analytical model per conv layer",
		Paper: "per-layer stream counts (model output C_out), varying by layer and GPU",
		Run:   runFig8,
	},
	{
		ID:    "fig9",
		Title: "Fig. 9: per-layer elapsed time, CIFAR10 on TitanXP and Siamese on P100",
		Paper: "layers finishing within ~2ms (conv1, conv1_p) can lose under GLP4NN",
		Run:   runFig9,
	},
	{
		ID:    "fig10",
		Title: "Fig. 10: memory consumption of GLP4NN (mem_tt, mem_K, mem_cupti)",
		Paper: "mem_cupti (CUPTI runtime) dominates; mem_tt/mem_K scale with recorded kernels",
		Run:   runFig10,
	},
	{
		ID:    "table6",
		Title: "Table 6: one-time overhead of GLP4NN (T_p, T_a, T_total, ratio)",
		Paper: "T_total ranges ~8-126ms; always <0.1% of total training time",
		Run:   runTable6,
	},
	{
		ID:    "fig11",
		Title: "Fig. 11: training CIFAR10 on P100 — convergence of GLP4NN-Caffe vs Caffe",
		Paper: "loss/accuracy curves coincide; residual gap is only the batch-shuffle order",
		Run:   runFig11,
	},
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists registered experiment ids in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// All returns the registry.
func All() []*Experiment { return registry }

// deviceSpecs resolves config device names.
func deviceSpecs(cfg Config) ([]simgpu.DeviceSpec, error) {
	var out []simgpu.DeviceSpec
	for _, name := range cfg.Devices {
		spec, ok := simgpu.DeviceByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown device %q (have %v)", name, simgpu.CatalogNames())
		}
		out = append(out, spec)
	}
	return out, nil
}

// table is a minimal aligned-column writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ms formats a duration as milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// buildConvLayerNet builds a single-convolution net matching one Table 5
// row, for the per-layer motivation experiments.
func buildConvLayerNet(row models.LayerRow, batch int, seed int64) (*dnn.Net, error) {
	ctx := dnn.NewContext(dnn.HostLauncher{}, seed)
	ctx.Compute = false
	cc := dnn.ConvConfig{
		NumOutput: row.Co,
		KernelH:   row.F, KernelW: row.F,
		StrideH: row.S, StrideW: row.S,
		PadH: row.P, PadW: row.P,
		Bias: true, Seed: seed,
	}
	return dnn.NewNet(row.Net+"/"+row.Layer).
		Input("data", batch, row.Ci, row.HW, row.HW).
		Add(dnn.NewConv(row.Layer, cc), []string{"data"}, []string{"out"}).
		Build(ctx)
}

// forwardElapsed measures the virtual time of one timing-only forward pass.
func forwardElapsed(net *dnn.Net, dev *simgpu.Device, l dnn.Launcher) (time.Duration, error) {
	if err := dev.ResetClocks(); err != nil {
		return 0, err
	}
	ctx := dnn.NewContext(l, 1)
	ctx.Compute = false
	if _, err := net.Forward(ctx); err != nil {
		return 0, err
	}
	return dev.SyncTime()
}

// iterationElapsed measures one full timing-only training iteration
// (forward + backward + SGD update) through the given solver's context.
func iterationElapsed(s *dnn.Solver, dev *simgpu.Device) (time.Duration, error) {
	if err := dev.ResetClocks(); err != nil {
		return 0, err
	}
	if _, err := s.Step(); err != nil {
		return 0, err
	}
	return dev.SyncTime()
}

// layerName extracts the layer from a kernel tag: "conv1/fwd|conv1/n3" and
// "conv1/n3" both map to "conv1".
func layerName(tag string) string {
	if i := strings.IndexByte(tag, '|'); i >= 0 {
		tag = tag[:i]
	}
	if i := strings.IndexByte(tag, '/'); i >= 0 {
		tag = tag[:i]
	}
	return tag
}

// perLayerSpans aggregates a trace into per-layer wall spans (max end −
// min start) in trace order of first appearance.
func perLayerSpans(recs []simgpu.KernelRecord) ([]string, map[string]time.Duration) {
	type span struct {
		lo, hi time.Duration
	}
	spans := map[string]*span{}
	var order []string
	for _, r := range recs {
		name := layerName(r.Tag)
		if name == "" {
			name = r.Name
		}
		s := spans[name]
		if s == nil {
			s = &span{lo: r.Start, hi: r.End}
			spans[name] = s
			order = append(order, name)
		} else {
			if r.Start < s.lo {
				s.lo = r.Start
			}
			if r.End > s.hi {
				s.hi = r.End
			}
		}
	}
	out := map[string]time.Duration{}
	for name, s := range spans {
		out[name] = s.hi - s.lo
	}
	return order, out
}

// sortedKeys returns map keys sorted (generic helpers kept local: the
// module targets Go 1.22 without extra dependencies).
func sortedKeys(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
