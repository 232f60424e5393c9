// Command glp4nn-serve freezes one of the paper's workloads into a
// forward-only inference engine and serves a seeded, heavy-tailed
// synthetic request load through the dynamic batcher: concurrent clients
// submit single samples, the batcher coalesces them into device batches
// (flush on batch-full or deadline), stages input over the runtime's copy
// stream and answers each request with its own output rows.
//
// Examples:
//
//	glp4nn-serve -net CIFAR10 -requests 256 -clients 8 -glp4nn
//	glp4nn-serve -net GoogLeNet -batch 16 -max-delay 1ms -glp4nn -dag
//	glp4nn-serve -net Siamese -weights trained.glpw -json
//	glp4nn-serve -net CIFAR10 -max-batch 1 -max-delay -1ns   # batch=1 serial baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/simgpu"
)

type options struct {
	netName  string
	batch    int
	maxBatch int
	maxDelay time.Duration
	requests int
	clients  int
	device   string
	useGLP   bool
	useDAG   bool
	useFuse  bool
	adapt    bool
	weights  string
	seed     int64
	mean     time.Duration
	emitJSON bool
}

func main() {
	var o options
	flag.StringVar(&o.netName, "net", "CIFAR10", "workload: CIFAR10, Siamese, CaffeNet or GoogLeNet")
	flag.IntVar(&o.batch, "batch", 8, "frozen engine device batch (rows per forward)")
	flag.IntVar(&o.maxBatch, "max-batch", 0, "max requests coalesced per batch (0 = engine batch; 1 = serial baseline)")
	flag.DurationVar(&o.maxDelay, "max-delay", 2*time.Millisecond, "flush deadline for a partial batch (negative = greedy flush)")
	flag.IntVar(&o.requests, "requests", 128, "total requests to serve")
	flag.IntVar(&o.clients, "clients", 8, "concurrent open-loop clients")
	flag.StringVar(&o.device, "device", "P100", "simulated GPU: K40C, P100 or TitanXP")
	flag.BoolVar(&o.useGLP, "glp4nn", false, "serve through GLP4NN's runtime (stream pool + copy stream) instead of the serial launcher")
	flag.BoolVar(&o.useDAG, "dag", false, "dispatch independent layers as concurrent wavefronts (bits unchanged)")
	flag.BoolVar(&o.useFuse, "fuse", false, "fuse bias/ReLU epilogues into the GEMM kernels (bits unchanged)")
	flag.BoolVar(&o.adapt, "adapt", false, "with -glp4nn: adaptive concurrency control — layers whose plan a fault pinned (serial demotion or lost profile) re-profile between batches (forward is width-invariant, so answers never change)")
	flag.StringVar(&o.weights, "weights", "", "load a weights snapshot (glp4nn-train -save-weights) before freezing")
	flag.Int64Var(&o.seed, "seed", 1, "seed for weights, load shape and sample content")
	flag.DurationVar(&o.mean, "mean-gap", 500*time.Microsecond, "mean request inter-arrival gap (Pareto tail)")
	flag.BoolVar(&o.emitJSON, "json", false, "emit machine-readable p50/p99 JSON instead of text")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// report is the -json output shape.
type report struct {
	Net       string  `json:"net"`
	Device    string  `json:"device"`
	Batch     int     `json:"engine_batch"`
	MaxBatch  int     `json:"max_batch"`
	Requests  int64   `json:"requests"`
	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	Retries   int64   `json:"retries"`
	Failures  int64   `json:"failures"`
	WallMs    float64 `json:"wall_ms"`
	RPS       float64 `json:"req_per_sec"`
	ReqP50Ms  float64 `json:"req_p50_ms"`
	ReqP99Ms  float64 `json:"req_p99_ms"`
	BatP50Ms  float64 `json:"batch_p50_ms"`
	BatP99Ms  float64 `json:"batch_p99_ms"`
}

func run(out io.Writer, o options) error {
	if o.clients < 1 || o.requests < 1 || o.batch < 1 {
		return fmt.Errorf("-clients, -requests and -batch must be at least 1 (got %d, %d and %d)", o.clients, o.requests, o.batch)
	}
	if o.maxBatch < 0 || o.mean < 0 {
		return fmt.Errorf("-max-batch and -mean-gap must not be negative (got %d and %v)", o.maxBatch, o.mean)
	}
	spec, ok := simgpu.DeviceByName(o.device)
	if !ok {
		return fmt.Errorf("unknown device %q (have %v)", o.device, simgpu.CatalogNames())
	}
	w, err := models.Get(o.netName)
	if err != nil {
		return err
	}

	dev := simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	var launcher dnn.Launcher = dnn.SerialLauncher{Dev: dev}
	var fw *core.Framework
	var rt *core.Runtime
	if o.useGLP {
		fw = core.New()
		defer fw.Close()
		rt = fw.Runtime(dev)
		launcher = rt
	}
	ctx := dnn.NewContext(launcher, o.seed)

	net, err := w.Build(ctx, o.batch, o.seed)
	if err != nil {
		return err
	}
	if o.weights != "" {
		if err := net.LoadWeightsFile(o.weights); err != nil {
			return err
		}
	}
	net.EnableDAG(o.useDAG)
	fusedSites := 0
	if o.useFuse {
		fusedSites = net.EnableFusion(true)
	}
	fz, err := dnn.Freeze(net)
	if err != nil {
		return err
	}
	freed := fz.Compact()

	cfg := serve.Config{MaxBatch: o.maxBatch, MaxDelay: o.maxDelay}
	if rt != nil {
		cfg.Observer = rt.Ledger()
		cfg.Budget = rt.Budget()
		if o.adapt {
			rt.SetAdaptive()
			cfg.Adapter = &adaptDriver{rt: rt}
		}
	} else if o.adapt {
		return fmt.Errorf("-adapt needs -glp4nn (there are no plans to adapt without it)")
	}
	srv, err := serve.New(fz, ctx, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if !o.emitJSON {
		fmt.Fprintf(out, "serving %s on %s: engine batch %d, max-batch %d, max-delay %v, glp4nn=%v dag=%v fuse=%v\n",
			o.netName, spec.Name, fz.Batch(), srv.MaxBatch(), o.maxDelay, o.useGLP, o.useDAG, o.useFuse)
		fmt.Fprintf(out, "frozen: inputs %v → outputs %v, %d gradient elements dropped\n",
			fz.Inputs(), fz.Outputs(), freed)
		if o.useFuse {
			fmt.Fprintf(out, "fused GEMM epilogues: %d sites\n", fusedSites)
		}
		if o.weights != "" {
			fmt.Fprintf(out, "weights loaded from %s\n", o.weights)
		}
	}

	rows := srv.RowSizes()
	errs := make([]error, o.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := serve.NewLoadGen(o.seed+int64(c)*101, o.mean)
			for id := c; id < o.requests; id += o.clients {
				time.Sleep(gen.NextDelay())
				samples := make([][]float32, len(rows))
				for in, n := range rows {
					samples[in] = gen.Sample(id, in, n)
				}
				if _, err := srv.Predict(samples...); err != nil {
					errs[c] = fmt.Errorf("request %d: %w", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	st := srv.Stats()
	mean := 0.0
	if st.Batches > 0 {
		mean = float64(st.Samples) / float64(st.Batches)
	}
	if o.emitJSON {
		enc := json.NewEncoder(out)
		return enc.Encode(report{
			Net: o.netName, Device: spec.Name,
			Batch: fz.Batch(), MaxBatch: srv.MaxBatch(),
			Requests: st.Requests, Batches: st.Batches, MeanBatch: mean,
			Retries: st.Retries, Failures: st.Failures,
			WallMs:   float64(wall) / float64(time.Millisecond),
			RPS:      float64(st.Requests) / wall.Seconds(),
			ReqP50Ms: float64(st.ReqP50) / float64(time.Millisecond),
			ReqP99Ms: float64(st.ReqP99) / float64(time.Millisecond),
			BatP50Ms: float64(st.BatchP50) / float64(time.Millisecond),
			BatP99Ms: float64(st.BatchP99) / float64(time.Millisecond),
		})
	}
	fmt.Fprintf(out, "served %d requests in %v (%.1f req/s) with %d clients\n",
		st.Requests, wall.Round(time.Millisecond), float64(st.Requests)/wall.Seconds(), o.clients)
	fmt.Fprintf(out, "serving: %s\n", st)
	if rt != nil {
		snap := rt.Ledger().Snapshot()
		fmt.Fprintf(out, "glp4nn overhead: %s\n", snap)
		fmt.Fprintf(out, "glp4nn serving: %s\n", snap.Serving())
		if o.useDAG {
			fmt.Fprintf(out, "operator DAG dispatches: %d of %d\n", snap.DAGDispatches, snap.Dispatches)
		}
		if o.adapt {
			fmt.Fprintf(out, "glp4nn adaptive: %s\n", snap.Adaptive())
		}
	}
	return nil
}

// adaptDriver is the serving-side adaptive control loop: each flushed batch
// is a step boundary. Forward execution is width-invariant (the per-chain
// gradient folds that make width part of the numeric contract are
// backward-only), so re-profiling and swapping between batches never
// changes an answer's bits — no checkpoint needed, unlike training.
type adaptDriver struct{ rt *core.Runtime }

func (a *adaptDriver) BatchBoundary() { a.rt.ScheduleReprofile(a.rt.StepBoundary()) }
