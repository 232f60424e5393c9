package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/simgpu"
)

const (
	serveBatch     = 8   // the frozen engine's device batch
	serveDistinct  = 64  // distinct samples sent; each has a reference answer
	serveClients   = 8   // closed-loop clients of the saturated phase
	servePacedRate = 150 // mean arrivals per second of the open-loop phase
)

// The measured window: training steps (0.55-0.65 s each on the reference
// box), then the two serving phases, sized as shares of cfg.Seconds.
const (
	cifarStepsPerSecond = 1.0
	cifarSatShare       = 0.25
	cifarPacedShare     = 0.25
)

// serveRig is the serving half of the life-cycle: the trained weights
// loaded into a batch-8 net, frozen, compacted and put behind a server.
type serveRig struct {
	fw      *core.Framework
	srv     *serve.Server
	tl      *traceLauncher
	samples [][][]float32 // [id][input] row
	refs    [][]float32   // [id] flattened answer of the MaxBatch: 1 pass
}

func (s *serveRig) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.fw.Close()
}

func flatten(rows [][]float32) []float32 {
	var out []float32
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// newServeRig saves the trained net, loads it into the serving net, and
// answers every distinct sample once through a MaxBatch: 1 server; those
// answers are what every later answer must equal bit for bit. It returns
// the wall time spent, which counts as set-up.
func newServeRig(cfg runConfig, trained *dnn.Net, tr *tracer, res *result) (*serveRig, float64, error) {
	start := time.Now()
	m := res.Metrics
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, 0, err
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("weights-%s-%d-%d.bin", cfg.Mode, cfg.Seed, os.Getpid()))
	defer os.Remove(path)

	timed := func(name string, fn func() error) error {
		s := tr.begin(name, -1, -1)
		t0 := time.Now()
		err := fn()
		m[name+".wall_ms"] = ms(time.Since(t0))
		tr.end(s)
		return err
	}
	if err := timed("dnn.save_weights", func() error { return trained.SaveWeightsFile(path) }); err != nil {
		return nil, 0, err
	}

	spec, _ := simgpu.DeviceByName("P100")
	dev := simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	rig := &serveRig{fw: core.New()}
	rt := rig.fw.Runtime(dev)
	ctx := dnn.NewContext(rt, cfg.Seed)
	if tr != nil {
		var err error
		if rig.tl, err = installTraceLauncher(ctx, false, false); err != nil {
			rig.close()
			return nil, 0, err
		}
	}
	net, err := models.BuildCIFAR10(ctx, serveBatch, cfg.Seed)
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	if err := timed("dnn.load_weights", func() error { return net.LoadWeightsFile(path) }); err != nil {
		rig.close()
		return nil, 0, err
	}
	var fz *dnn.FrozenNet
	if err := timed("dnn.freeze", func() error {
		var ferr error
		if fz, ferr = dnn.Freeze(net); ferr == nil {
			fz.Compact()
		}
		return ferr
	}); err != nil {
		rig.close()
		return nil, 0, err
	}

	one, err := serve.New(fz, ctx, serve.Config{MaxBatch: 1, MaxDelay: -1})
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	gen := serve.NewLoadGen(cfg.Seed, time.Second)
	rows := one.RowSizes()
	for id := 0; id < serveDistinct; id++ {
		sample := make([][]float32, len(rows))
		for in, n := range rows {
			sample[in] = gen.Sample(id, in, n)
		}
		out, err := one.Predict(sample...)
		if err != nil {
			one.Close()
			rig.close()
			return nil, 0, fmt.Errorf("reference answer %d: %w", id, err)
		}
		rig.samples = append(rig.samples, sample)
		rig.refs = append(rig.refs, flatten(out))
	}
	one.Close()

	rig.srv, err = serve.New(fz, ctx, serve.Config{Observer: rt.Ledger(), Budget: rt.Budget()})
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	return rig, time.Since(start).Seconds(), nil
}

// phaseResult is one serving phase's measurements.
type phaseResult struct {
	mu        sync.Mutex // clients record concurrently
	latMs     []float64
	doneAt    []time.Duration // completion times since the phase began
	failed    int
	wrong     int
	elapsed   time.Duration
	lateMaxMs float64
	stats     serve.Stats // delta over the phase (quantiles: end of phase)
}

// record files one answered (or failed) request; at is its completion time
// since the phase began.
func (p *phaseResult) record(ok, right bool, lat, at time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !ok:
		p.failed++
	case !right:
		p.wrong++
	}
	p.latMs = append(p.latMs, ms(lat))
	p.doneAt = append(p.doneAt, at)
}

func statsDelta(a, b serve.Stats) serve.Stats {
	b.Requests -= a.Requests
	b.Batches -= a.Batches
	b.Samples -= a.Samples
	b.Retries -= a.Retries
	b.Failures -= a.Failures
	b.Shed -= a.Shed
	return b
}

func meanBatch(s serve.Stats) float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Samples) / float64(s.Batches)
}

// ask sends request id and checks the answer against its reference.
func (s *serveRig) ask(id int) (ok, right bool) {
	k := id % len(s.samples)
	out, err := s.srv.Predict(s.samples[k]...)
	if err != nil {
		return false, false
	}
	return true, bitsEqual(flatten(out), s.refs[k])
}

// saturated is the closed loop: serveClients clients, no think time, each
// sending its next request when the previous answer arrives; it stops
// issuing after d (or after maxReq requests, for the smoke test).
func (s *serveRig) saturated(d time.Duration, maxReq int, tr *tracer) *phaseResult {
	before := s.srv.Stats()
	var next atomic.Int64
	p := &phaseResult{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1)) - 1
				if (maxReq > 0 && id >= maxReq) || (maxReq == 0 && time.Since(start) >= d) {
					return
				}
				sp := tr.begin("serve.predict", -1, id)
				t0 := time.Now()
				ok, right := s.ask(id)
				lat := time.Since(t0)
				tr.end(sp)
				p.record(ok, right, lat, time.Since(start))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.stats = statsDelta(before, s.srv.Stats())
	return p
}

// satSlice is the grain the saturated phase's throughput is taken at.
const satSlice = 250 * time.Millisecond

// reqPerSecond is the saturated throughput: answers per second in the
// median satSlice of the phase, so one disturbed quarter-second does not
// set the number. A phase shorter than four slices reports its mean rate.
func (p *phaseResult) reqPerSecond(d time.Duration) float64 {
	slices := int(d / satSlice)
	if slices < 4 {
		return float64(len(p.doneAt)) / p.elapsed.Seconds()
	}
	counts := make([]float64, slices)
	for _, at := range p.doneAt {
		if i := int(at / satSlice); i < slices {
			counts[i]++
		}
	}
	return median(counts) / satSlice.Seconds()
}

// paced is the open loop: one generator goroutine sends n requests on a
// bounded-Pareto schedule whose gaps are rescaled to the exact mean rate
// (the raw draws have infinite variance, so a seed would otherwise set the
// load), and each request is timed from the moment it was due.
func (s *serveRig) paced(seed int64, n int, rate float64, idBase int, tr *tracer) *phaseResult {
	before := s.srv.Stats()
	gen := serve.NewLoadGen(seed, time.Duration(float64(time.Second)/rate))
	due := make([]time.Duration, n)
	var at time.Duration
	for i := range due {
		at += gen.NextDelay()
		due[i] = at
	}
	scale := float64(n) / rate / at.Seconds()
	p := &phaseResult{}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		dueAt := start.Add(time.Duration(float64(due[i]) * scale))
		time.Sleep(time.Until(dueAt))
		if late := ms(time.Since(dueAt)); late > p.lateMaxMs {
			p.lateMaxMs = late // only the generator writes this
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sp := tr.begin("serve.predict", -1, id)
			ok, right := s.ask(id)
			lat := time.Since(dueAt)
			tr.end(sp)
			p.record(ok, right, lat, time.Since(start))
		}(idBase + i)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.stats = statsDelta(before, s.srv.Stats())
	return p
}

func runCifarTrainServe(cfg runConfig) (*result, error) {
	o := trainOpts{Net: "CIFAR10", Device: "P100", Batch: 100, Traced: cfg.Mode == modeTraced}
	if cfg.Quick {
		o.Batch = 8
	}
	res, rig, err := trainWorkload(cfg, o, cifarStepsPerSecond, 0)
	if err != nil || rig == nil {
		return res, err
	}
	defer rig.close()

	sr, secs, err := newServeRig(cfg, rig.net, rig.tr, res)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	m := res.Metrics
	m["setup_s"] += secs

	satFor := time.Duration(cfg.Seconds * cifarSatShare * float64(time.Second))
	pacedN := int(cfg.Seconds * cifarPacedShare * servePacedRate)
	satMax := 0
	if cfg.Quick {
		satMax, pacedN = 16, 16
	}
	sat := sr.saturated(satFor, satMax, rig.tr)
	pac := sr.paced(cfg.Seed+7, pacedN, servePacedRate, len(sat.latMs), rig.tr)
	final := sr.srv.Stats()

	res.Attempted += len(sat.latMs) + len(pac.latMs)
	res.Failed += sat.failed + pac.failed + int(final.Shed)
	wrong := sat.wrong + pac.wrong
	res.check("served-answers-bitwise", wrong == 0, "%d answers differ from the MaxBatch: 1 reference", wrong)
	m["serve_req_per_s"] = sat.reqPerSecond(satFor)
	m["serve_latency_ms_p50"] = median(pac.latMs)
	m["serve.sat.mean_batch"] = meanBatch(sat.stats)
	m["serve.paced.mean_batch"] = meanBatch(pac.stats)
	m["serve.batch_ms_p50"] = ms(final.BatchP50)
	m["serve.batch_ms_p99"] = ms(final.BatchP99)
	m["serve.queue_wait_ms_p50"] = median(pac.latMs) - ms(pac.stats.BatchP50)
	m["serve.sat.latency_ms_p50"] = median(sat.latMs)
	m["serve.latency_ms_p99"] = percentile(pac.latMs, 0.99)
	m["serve.latency.samples"] = float64(len(pac.latMs))
	m["serve.gen_late_ms_max"] = pac.lateMaxMs
	m["serve.retries"] = float64(final.Retries)
	m["serve.shed"] = float64(final.Shed)
	m["serve.failures"] = float64(final.Failures)

	if rig.tr != nil {
		// The server's forward passes ran through their own wrapper; fold
		// its keys in under a "serve:" prefix.
		rows := keyRows(rig.tl, rig.ra)
		for _, r := range keyRows(sr.tl, nil) {
			r.Key = "serve:" + r.Key
			rows = append(rows, r)
		}
		path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, rig.tr, rows)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	if err := addSpeedup(res, rig, cfg.Seed); err != nil {
		return nil, err
	}
	return res, nil
}
