package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// Run modes of one (workload, seed) process.
const (
	modeMeasure   = "measure"   // untraced: the end-to-end numbers come from here
	modeReference = "reference" // the reference configuration, for the param-hash oracle
	modeTraced    = "traced"    // spans + launcher wrapper + completion records
)

// warmupSteps is profile → analyse → first steady step; the measured
// window starts after it (and a runtime.GC()).
const warmupSteps = 3

// quickSteps is the measured window of the smoke-test size.
const quickSteps = 2

// amortizeSteps is the run length the virtual-clock end-to-end metrics are
// quoted for: the paper's cost model (Eq. 12) adds T_p + T_a + T_s to the
// steady steps of a training run, and Table 6 quotes the overhead against
// a run of this order.
const amortizeSteps = 1000

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the measured window
	Quick    bool    // smoke-test sizes (bench_test.go)
	Mode     string
	Start    time.Time // process start: setup_s counts from here
	OutDir   string    // where the traced pass writes its file
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one process reports back to the driver loop.
type result struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Hash is the param hash after the last of the Steps measured steps
	// ("" on sim-paper, which trains nothing).
	Hash      string  `json:"hash,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Checks    []check `json:"checks"`
	TraceFile string  `json:"trace_file,omitempty"`
}

func newResult(cfg runConfig) *result {
	return &result{Workload: cfg.Workload, Mode: cfg.Mode, Metrics: map[string]float64{}}
}

func (r *result) check(name string, ok bool, format string, args ...interface{}) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// syncVirtual drains the device and returns the step's simulated time,
// max(Synchronize, HostTime), as the CLI reports it.
func syncVirtual(dev *simgpu.Device) (time.Duration, error) {
	devT, err := dev.Synchronize()
	if err != nil {
		return 0, err
	}
	if h := dev.HostTime(); h > devT {
		return h, nil
	}
	return devT, nil
}

func procs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// amortized is the mean simulated step of an amortizeSteps-long run whose
// first steps are the measured warm-up steps (profiling, collection and
// MILP analysis are charged there) and whose rest repeat the steady step.
func amortized(warm []time.Duration, steady time.Duration) time.Duration {
	total := time.Duration(amortizeSteps-len(warm)) * steady
	for _, w := range warm {
		total += w
	}
	return total / amortizeSteps
}

// steadyOf checks that every measured step took the same simulated time
// (tolerance is the relative spread allowed; 0 = to the nanosecond) and
// returns the median and the spread seen, in percent of the slowest step.
func steadyOf(r *result, name string, virt []time.Duration, tolerance float64) (time.Duration, float64) {
	xs := make([]float64, len(virt))
	for i, v := range virt {
		xs[i] = float64(v)
	}
	lo, hi := minMax(xs)
	r.check(name, hi-lo <= tolerance*hi, "steady steps spread %v..%v", time.Duration(lo), time.Duration(hi))
	return time.Duration(median(xs)), 100 * (hi - lo) / hi
}

// trainOpts selects the features of a one-device training rig.
type trainOpts struct {
	Net, Device               string
	Batch                     int
	DAG, Pool, Fuse, Prefetch bool
	Traced                    bool
}

// trainRig is one net training on one simulated GPU through the GLP4NN
// runtime, driven step by step through the public API the CLI uses.
type trainRig struct {
	opts   trainOpts
	dev    *simgpu.Device
	fw     *core.Framework
	rt     *core.Runtime
	ctx    *dnn.Context
	net    *dnn.Net
	solver *dnn.Solver
	feed   models.Feeder
	pipe   *models.InputPipe

	tr *tracer
	tl *traceLauncher
	ra *recordAgg

	steps int
}

type stepSample struct {
	wall    time.Duration
	virtual time.Duration
}

func newTrainRig(cfg runConfig, o trainOpts, res *result) (*trainRig, error) {
	spec, ok := simgpu.DeviceByName(o.Device)
	if !ok {
		return nil, fmt.Errorf("unknown device %q", o.Device)
	}
	w, err := models.Get(o.Net)
	if err != nil {
		return nil, err
	}
	r := &trainRig{opts: o}
	r.dev = simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	r.fw = core.New()
	r.rt = r.fw.Runtime(r.dev)
	if o.Pool {
		r.ctx = dnn.NewParallelContext(r.rt, cfg.Seed, hostpool.New(procs()))
	} else {
		r.ctx = dnn.NewContext(r.rt, cfg.Seed)
	}
	if o.Traced {
		r.tr = newTracer()
		r.ra = newRecordAgg()
		r.dev.Subscribe(r.ra.observe)
	}
	b := r.tr.begin("models.build", -1, -1)
	buildStart := time.Now()
	r.net, err = w.Build(r.ctx, o.Batch, cfg.Seed)
	res.Metrics["models.build.wall_ms"] = ms(time.Since(buildStart))
	r.tr.end(b)
	if err != nil {
		r.close()
		return nil, err
	}
	r.net.EnableDAG(o.DAG)
	sites := 0
	if o.Fuse {
		sites = r.net.EnableFusion(true)
	}
	res.Metrics["dnn.fused_sites"] = float64(sites)
	if st, err := r.net.DAGStats(); err == nil {
		res.Metrics["dnn.dag.wavefront_max"] = float64(st.MaxWavefront)
	}
	if o.Traced && !o.DAG && !o.Pool {
		// The wrapper runs only where the serial path runs; the DAG and
		// pooled workloads keep phase spans and completion records.
		if r.tl, err = installTraceLauncher(r.ctx, r.net.DAGEnabled(), false); err != nil {
			r.close()
			return nil, err
		}
	}
	// Same (batch, seed) gives the same batch stream, pipelined or not.
	r.feed = w.NewFeeder(o.Batch, cfg.Seed+1)
	if o.Prefetch {
		r.pipe, err = models.NewInputPipe(o.Net, o.Batch, cfg.Seed+1, models.PipeConfig{Pool: r.ctx.Pool, Observer: r.rt.Ledger()})
		if err != nil {
			r.close()
			return nil, err
		}
		r.feed = r.pipe.Feed
	}
	r.solver = dnn.NewSolver(r.net, r.ctx, dnn.CIFAR10QuickSolver())
	return r, nil
}

func (r *trainRig) close() {
	if r.pipe != nil {
		r.pipe.Close()
	}
	r.fw.Close()
}

// step is one training iteration: feed + stage + forward + backward +
// update + sync, each public call its own span.
func (r *trainRig) step() (stepSample, error) {
	id := r.steps
	r.steps++
	tr := r.tr
	start := time.Now()
	root := tr.begin("bench.step", -1, id)
	s := tr.begin("data.feed", root, id)
	err := r.feed(r.net)
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	if err := r.dev.ResetClocks(); err != nil {
		return stepSample{}, err
	}
	s = tr.begin("dnn.stage", root, id)
	if r.opts.Prefetch {
		err = r.net.StageInputs(r.ctx)
	} else {
		err = r.net.UploadInputs(r.ctx)
	}
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	s = tr.begin("dnn.forward", root, id)
	r.net.ClearDiffs()
	loss, err := r.net.Forward(r.ctx)
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	s = tr.begin("dnn.backward", root, id)
	err = r.net.Backward(r.ctx)
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	s = tr.begin("dnn.update", root, id)
	err = r.solver.ApplyUpdate()
	r.solver.SetIter(r.solver.Iter() + 1)
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	if r.tl != nil {
		r.tl.endStep()
	}
	s = tr.begin("simgpu.sync", root, id)
	virt, err := syncVirtual(r.dev)
	tr.end(s)
	if err != nil {
		return stepSample{}, err
	}
	tr.end(root)
	wall := time.Since(start)
	if r.ra != nil {
		r.ra.foldStep()
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return stepSample{}, fmt.Errorf("step %d: loss is %v", id, loss)
	}
	return stepSample{wall: wall, virtual: virt}, nil
}

// naiveStep is the serial-launcher arm of glp_speedup_x for a real-math
// workload: one timing-only step of the same net (closures stripped, so no
// parameter moves) on a fresh device of the same spec, DAG and fusion off
// as in naive Caffe. It runs after the measured window. fullStep adds the
// input upload and the SGD update, as a one-device step has them; without
// it the step is forward + backward, the data-parallel compute phase.
func naiveStep(net *dnn.Net, spec simgpu.DeviceSpec, seed int64, fullStep bool) (time.Duration, error) {
	net.EnableDAG(false)
	net.EnableFusion(false)
	dev := simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	ctx := dnn.NewContext(dnn.SerialLauncher{Dev: dev}, seed)
	ctx.Compute = false
	solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
	var virt time.Duration
	for i := 0; i < 2; i++ { // the second step is the steady one
		if err := dev.ResetClocks(); err != nil {
			return 0, err
		}
		if fullStep {
			if err := net.UploadInputs(ctx); err != nil {
				return 0, err
			}
		}
		if _, err := net.ForwardBackward(ctx); err != nil {
			return 0, err
		}
		if fullStep {
			if err := solver.ApplyUpdate(); err != nil {
				return 0, err
			}
		}
		var err error
		if virt, err = syncVirtual(dev); err != nil {
			return 0, err
		}
	}
	return virt, nil
}

// window is the measured steps of one training workload plus the counters
// read around them.
type window struct {
	warm    []time.Duration // simulated time of each warm-up step
	steps   []stepSample
	failed  int
	mallocs uint64
	hash    string
}

func (w *window) walls() []float64 {
	out := make([]float64, len(w.steps))
	for i, s := range w.steps {
		out[i] = ms(s.wall)
	}
	return out
}

func (w *window) virtuals() []time.Duration {
	out := make([]time.Duration, len(w.steps))
	for i, s := range w.steps {
		out[i] = s.virtual
	}
	return out
}

// stepCount turns the window length into a fixed amount of work: rate is
// the workload's nominal steps per second on the reference box, so a run
// measures for about cfg.Seconds there. The count, not the clock, ends the
// window: allocations, peak RSS and the oracle's hash then do not depend on
// how fast the box happens to be, and the reference configuration trains
// exactly as far as the measured pass.
func stepCount(cfg runConfig, rate float64) int {
	if cfg.Quick {
		return quickSteps
	}
	n := int(math.Round(rate * cfg.Seconds))
	if n < quickSteps {
		n = quickSteps
	}
	return n
}
