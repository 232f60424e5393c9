package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// span is one timed interval at a layer boundary. Spans of one training
// step (or one served request) share Step; Parent is the id of the span
// that caused this one, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Step    int    `json:"step"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil tracer is tracing
// off: begin and end are no-ops, so the step loops call them
// unconditionally and the untraced pass pays one nil check per phase.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // request spans arrive from client goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named "<layer>.<phase>" and returns its id (-1 when
// tracing is off).
func (t *tracer) begin(name string, parent, step int) int {
	if t == nil {
		return -1
	}
	layer := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		layer = name[:i]
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Step: step, StartNs: now, EndNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// durations returns the wall time of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its child spans cover (children may overlap each other, so
// the cover is the union of their intervals clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), p.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > p.EndNs {
				hi = p.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(p.EndNs - p.StartNs - covered)
	}
	return out
}

// kernelAgg accumulates launches of one kernel name.
type kernelAgg struct {
	Wall  time.Duration `json:"-"`
	Calls int64         `json:"calls"`
	FLOPs float64       `json:"flops"`
	Bytes float64       `json:"bytes"`
}

// keyWall is the host-side view of one "layer/fwd|bwd" key: the wall time
// from its BeginLayer to the next BeginLayer and the launches in between.
type keyWall struct {
	wall     time.Duration
	byKernel map[string]*kernelAgg
}

// kernelSig identifies a launch for the both-arms-launch-the-same-work
// check on sim-paper.
type kernelSig struct {
	name  string
	flops float64
}

// traceLauncher is the benchmark-owned dnn.Launcher wrapper of the traced
// pass: it times BeginLayer→next BeginLayer per key and Launch per
// Kernel.Name, aggregating in place (a CIFAR10 step is 2272 launches; one
// span each would be 90k spans a run). It forwards UploadBytes and
// StageInput, and deliberately lacks ForkLayerSession, DAGReady and
// LayerConcurrencyCap: a net with the DAG on would silently fall back to
// serial order behind it, so installTraceLauncher refuses such nets.
type traceLauncher struct {
	inner     dnn.Launcher
	prefixKey bool // inner does not tag kernels with the layer key itself

	keys     map[string]*keyWall
	order    []string
	cur      *keyWall
	curKey   string
	curStart time.Time

	byKernel map[string]*kernelAgg
	multiset map[kernelSig]int64
	inCalls  time.Duration // wall time inside inner.Launch and inner.Sync
}

// installTraceLauncher wraps ctx.L. It refuses when the wrapper would
// change what the program does: with the operator DAG on (the wrapper
// cannot fork layer sessions) or with a host pool (a pooled context strips
// closures before Launch, so per-kernel wall time would be meaningless).
// prefixKey is set for launchers that do not tag kernels with the layer key
// themselves (the serial launcher; the GLP4NN runtime does).
func installTraceLauncher(ctx *dnn.Context, dagOn, prefixKey bool) (*traceLauncher, error) {
	if dagOn {
		return nil, fmt.Errorf("trace: refusing to wrap the launcher of a net with the operator DAG on (the wrapper would switch it off)")
	}
	if ctx.Pool != nil {
		return nil, fmt.Errorf("trace: refusing to wrap the launcher of a pooled context (closures run off the launch path)")
	}
	tl := &traceLauncher{
		inner:     ctx.L,
		prefixKey: prefixKey,
		keys:      map[string]*keyWall{},
		byKernel:  map[string]*kernelAgg{},
		multiset:  map[kernelSig]int64{},
	}
	ctx.L = tl
	return tl, nil
}

func (t *traceLauncher) closeKey(now time.Time) {
	if t.cur != nil {
		t.cur.wall += now.Sub(t.curStart)
		t.cur = nil
	}
}

// BeginLayer implements dnn.Launcher.
func (t *traceLauncher) BeginLayer(key string) {
	now := time.Now()
	t.closeKey(now)
	kw := t.keys[key]
	if kw == nil {
		kw = &keyWall{byKernel: map[string]*kernelAgg{}}
		t.keys[key] = kw
		t.order = append(t.order, key)
	}
	t.cur, t.curKey, t.curStart = kw, key, now
	t.inner.BeginLayer(key)
}

// endStep closes the key left open by the step's last BeginLayer.
func (t *traceLauncher) endStep() { t.closeKey(time.Now()) }

func bump(m map[string]*kernelAgg, k *simgpu.Kernel, d time.Duration) {
	a := m[k.Name]
	if a == nil {
		a = &kernelAgg{}
		m[k.Name] = a
	}
	a.Wall += d
	a.Calls++
	a.FLOPs += k.Cost.FLOPs
	a.Bytes += k.Cost.Bytes
}

// Launch implements dnn.Launcher.
func (t *traceLauncher) Launch(k *simgpu.Kernel, chain int) error {
	if t.prefixKey && t.curKey != "" {
		kk := *k
		kk.Tag = t.curKey + "|" + k.Tag
		k = &kk
	}
	start := time.Now()
	err := t.inner.Launch(k, chain)
	d := time.Since(start)
	t.inCalls += d
	bump(t.byKernel, k, d)
	if t.cur != nil {
		bump(t.cur.byKernel, k, d)
	}
	t.multiset[kernelSig{k.Name, k.Cost.FLOPs}]++
	return err
}

// Sync implements dnn.Launcher.
func (t *traceLauncher) Sync() error {
	start := time.Now()
	err := t.inner.Sync()
	t.inCalls += time.Since(start)
	return err
}

// Width implements dnn.Launcher.
func (t *traceLauncher) Width() int { return t.inner.Width() }

// UploadBytes implements dnn.Uploader.
func (t *traceLauncher) UploadBytes(n int64) error {
	if up, ok := t.inner.(dnn.Uploader); ok {
		return up.UploadBytes(n)
	}
	return nil
}

// StageInput implements dnn.InputStager, with Net.StageInputs' own fallback
// to the default-stream upload when the inner launcher has no copy stream.
func (t *traceLauncher) StageInput(n int64) error {
	if st, ok := t.inner.(dnn.InputStager); ok {
		return st.StageInput(n)
	}
	return t.UploadBytes(n)
}

// reset drops everything accumulated so far (warm-up).
func (t *traceLauncher) reset() {
	t.keys = map[string]*keyWall{}
	t.order = nil
	t.cur = nil
	t.byKernel = map[string]*kernelAgg{}
	t.multiset = map[kernelSig]int64{}
	t.inCalls = 0
}

// kernelFamily maps a Kernel.Name onto the family its metric is named for.
func kernelFamily(name string) string {
	switch {
	case strings.HasPrefix(name, "sgemm_"), name == "winograd_gemm":
		return "sgemm"
	case name == "im2col_gpu":
		return "im2col"
	case name == "col2im_gpu":
		return "col2im"
	case strings.HasPrefix(name, "gemmk_"):
		return "gemmk"
	case name == "sgd_update":
		return "sgd_update"
	}
	return "elementwise"
}

// families folds the per-name aggregates into the named kernel families.
func (t *traceLauncher) families() map[string]kernelAgg {
	out := map[string]kernelAgg{}
	for name, a := range t.byKernel {
		f := out[kernelFamily(name)]
		f.Wall += a.Wall
		f.Calls += a.Calls
		f.FLOPs += a.FLOPs
		f.Bytes += a.Bytes
		out[kernelFamily(name)] = f
	}
	return out
}

// parseTag splits a kernel record tag "<key>|<layer>/n<i>" into the layer
// key and the dependency chain the kernel belongs to. Kernels without a
// "/n<i>" suffix ran on the default stream (chain -1) and report chain "".
func parseTag(tag string) (key, chain string) {
	rest := tag
	if i := strings.IndexByte(tag, '|'); i >= 0 {
		key, rest = tag[:i], tag[i+1:]
	} else {
		return "", chainOf(tag)
	}
	return key, chainOf(rest)
}

func chainOf(tag string) string {
	i := strings.LastIndex(tag, "/n")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(tag[i+2:]); err != nil {
		return ""
	}
	return tag[i+2:]
}

// keyVirtual is the simulated-clock view of one layer key, from the
// device's completion records.
type keyVirtual struct {
	lo, hi  time.Duration // this step's first start and last end
	seen    bool
	span    time.Duration // Σ over steps of (hi − lo)
	kernels int64
	flops   float64
	bytes   float64
	streams map[int]bool
	chains  map[string]time.Duration // this step's per-chain kernel time
	crit    time.Duration            // Σ over steps of the longest chain (+ default-stream work)
}

// recordAgg subscribes to a device and aggregates its completion records
// per layer key. The listener runs under the device lock during drains and
// touches only this struct.
type recordAgg struct {
	mu    sync.Mutex
	keys  map[string]*keyVirtual
	order []string
	busy  time.Duration // Σ kernel durations, all keys
}

func newRecordAgg() *recordAgg { return &recordAgg{keys: map[string]*keyVirtual{}} }

func (a *recordAgg) observe(r simgpu.KernelRecord) {
	key, chain := parseTag(r.Tag)
	if key == "" {
		key = r.Name
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	kv := a.keys[key]
	if kv == nil {
		kv = &keyVirtual{streams: map[int]bool{}, chains: map[string]time.Duration{}}
		a.keys[key] = kv
		a.order = append(a.order, key)
	}
	if !kv.seen || r.Start < kv.lo {
		kv.lo = r.Start
	}
	if !kv.seen || r.End > kv.hi {
		kv.hi = r.End
	}
	kv.seen = true
	d := r.Duration()
	kv.kernels++
	kv.flops += r.FLOPs
	kv.bytes += r.Bytes
	kv.streams[r.StreamID] = true
	kv.chains[chain] += d
	a.busy += d
}

// foldStep closes the current step: per key, the span and the critical
// chain are added to the totals. Call it after the step's Synchronize and
// before the next ResetClocks (the device clock restarts at zero).
func (a *recordAgg) foldStep() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, kv := range a.keys {
		if !kv.seen {
			continue
		}
		kv.span += kv.hi - kv.lo
		var longest time.Duration
		for c, d := range kv.chains {
			if c != "" && d > longest {
				longest = d
			}
		}
		kv.crit += longest + kv.chains[""]
		kv.seen = false
		for c := range kv.chains {
			delete(kv.chains, c)
		}
	}
}

func (a *recordAgg) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.keys = map[string]*keyVirtual{}
	a.order = nil
	a.busy = 0
}

// parallelBound is total kernel time over the summed per-key critical
// chains: the speedup intra-layer concurrency could reach with unbounded
// resources (arXiv 2005.13823's upper limit), printed beside glp_speedup_x.
func (a *recordAgg) parallelBound() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var crit time.Duration
	for _, kv := range a.keys {
		crit += kv.crit
	}
	if crit == 0 {
		return 0
	}
	return float64(a.busy) / float64(crit)
}

// keyRow is one line of the per-key breakdown in the trace file — too wide
// for named metrics.
type keyRow struct {
	Key       string                `json:"key"`
	WallMs    float64               `json:"wall_ms"`
	VirtualMs float64               `json:"virtual_ms"`
	Kernels   int64                 `json:"kernels"`
	Width     int                   `json:"width"`
	FLOPs     float64               `json:"flops"`
	Bytes     float64               `json:"bytes"`
	ByKernel  map[string]*kernelAgg `json:"by_kernel,omitempty"`
}

// keyRows joins the host-side (wrapper) and simulated (records) views.
// Either side may be nil: the pooled and DAG workloads have records only.
func keyRows(tl *traceLauncher, ra *recordAgg) []keyRow {
	rows := map[string]*keyRow{}
	var order []string
	row := func(key string) *keyRow {
		r := rows[key]
		if r == nil {
			r = &keyRow{Key: key}
			rows[key] = r
			order = append(order, key)
		}
		return r
	}
	if tl != nil {
		for _, key := range tl.order {
			kw := tl.keys[key]
			r := row(key)
			r.WallMs = ms(kw.wall)
			r.ByKernel = kw.byKernel
		}
	}
	if ra != nil {
		ra.mu.Lock()
		for _, key := range ra.order {
			kv := ra.keys[key]
			r := row(key)
			r.VirtualMs = ms(kv.span)
			r.Kernels = kv.kernels
			r.Width = len(kv.streams)
			r.FLOPs = kv.flops
			r.Bytes = kv.bytes
		}
		ra.mu.Unlock()
	}
	out := make([]keyRow, 0, len(order))
	for _, key := range order {
		out = append(out, *rows[key])
	}
	return out
}

// traceFile is what the traced pass writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Spans    []span   `json:"spans"`
	SelfNs   []int64  `json:"self_ns"` // parallel to Spans
	Keys     []keyRow `json:"keys"`
}

func writeTraceFile(dir, workload string, seed int64, t *tracer, keys []keyRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	tf := traceFile{Workload: workload, Seed: seed, Keys: keys}
	if t != nil {
		tf.Spans = t.spans
		for _, d := range selfTimes(t.spans) {
			tf.SelfNs = append(tf.SelfNs, d.Nanoseconds())
		}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
