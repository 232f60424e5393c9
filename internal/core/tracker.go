package core

import (
	"strings"
	"sync"
	"time"

	"repro/internal/cuptisim"
	"repro/internal/simgpu"
)

// KernelStats is the parsed summary of one distinct kernel within a layer:
// its launch configuration (the paper's profiling inputs τ_Ki, sm_Ki, #β_Ki)
// and its average execution time T_Ki.
type KernelStats struct {
	Name        string
	Config      simgpu.LaunchConfig
	Launches    int
	AvgDuration time.Duration
	totalDur    time.Duration
}

// kernelSig distinguishes kernels that share a name but differ in launch
// geometry (e.g. the forward and backward SGEMMs of one layer).
type kernelSig struct {
	name string
	cfg  simgpu.LaunchConfig
}

// LayerProfile aggregates the kernels observed under one scheduler key
// ("<layer>/fwd" etc.) during the profiling iteration.
type LayerProfile struct {
	Key     string
	Kernels []*KernelStats // first-seen order
	Records int
	bydKey  map[kernelSig]*KernelStats
}

func newLayerProfile(key string) *LayerProfile {
	return &LayerProfile{Key: key, bydKey: map[kernelSig]*KernelStats{}}
}

// TotalDuration is the layer's total profiled kernel time — the timing a
// concurrency plan is solved from (Plan.SolvedFrom). An empty profile
// totals 0.
func (p *LayerProfile) TotalDuration() time.Duration {
	var total time.Duration
	for _, ks := range p.Kernels {
		total += ks.totalDur
	}
	return total
}

func (p *LayerProfile) add(rec cuptisim.KernelActivity) {
	p.Records++
	cfg := simgpu.LaunchConfig{
		Grid:           rec.Grid,
		Block:          rec.Block,
		RegsPerThread:  rec.RegsPerThread,
		SharedMemBytes: rec.SharedMemBytes,
	}
	sig := kernelSig{rec.Name, cfg}
	ks := p.bydKey[sig]
	if ks == nil {
		ks = &KernelStats{Name: rec.Name, Config: cfg}
		p.bydKey[sig] = ks
		p.Kernels = append(p.Kernels, ks)
	}
	ks.Launches++
	ks.totalDur += rec.Duration()
	ks.AvgDuration = ks.totalDur / time.Duration(ks.Launches)
}

// Tracker is the resource tracker module: the machine-wide, compact,
// asynchronous kernel profiler (kernel profiler + kernel parser submodules
// of Fig. 6). It owns one CUPTI session per device and charges profiling
// costs to the per-device ledger.
type Tracker struct {
	mu       sync.Mutex
	sessions map[*simgpu.Device]*cuptisim.Session
	lastInst map[*simgpu.Device]time.Duration
}

// NewTracker builds the shared resource tracker.
func NewTracker() *Tracker {
	return &Tracker{
		sessions: map[*simgpu.Device]*cuptisim.Session{},
		lastInst: map[*simgpu.Device]time.Duration{},
	}
}

func (t *Tracker) session(dev *simgpu.Device) *cuptisim.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sessions[dev]
	if s == nil {
		s = cuptisim.Subscribe(dev)
		t.sessions[dev] = s
	}
	return s
}

// layerKey extracts the scheduler key from the "<key>|<kernel tag>" tag a
// session's Launch stamps on every kernel; an unprefixed tag is its own key.
func layerKey(tag string) string {
	if i := strings.IndexByte(tag, '|'); i >= 0 {
		return tag[:i]
	}
	return tag
}

// StartProfiling enables kernel-activity collection on a device.
func (t *Tracker) StartProfiling(dev *simgpu.Device) error {
	return t.session(dev).EnableKernelActivity()
}

// Collect stops profiling, flushes the CUPTI buffers, and parses the
// records into per-layer profiles keyed by the scheduler key embedded in
// each kernel tag ("<key>|<kernel tag>"). The parse is timed for real and,
// together with the per-kernel instrumentation overhead, makes up T_p.
func (t *Tracker) Collect(dev *simgpu.Device, ledger *Ledger) (map[string]*LayerProfile, error) {
	s := t.session(dev)
	if err := s.DisableKernelActivity(); err != nil {
		return nil, err
	}
	recs, err := s.Flush()
	if err != nil {
		return nil, err
	}

	parseStart := time.Now()
	out := map[string]*LayerProfile{}
	for _, r := range recs {
		key := layerKey(r.Tag)
		p := out[key]
		if p == nil {
			p = newLayerProfile(key)
			out[key] = p
		}
		p.add(r)
	}
	parseTime := time.Since(parseStart)

	t.mu.Lock()
	instr := s.InstrumentationTime()
	instrDelta := instr - t.lastInst[dev]
	t.lastInst[dev] = instr
	t.mu.Unlock()

	tp := instrDelta + parseTime
	if ledger != nil {
		ledger.addProfiling(int64(len(recs)), tp, s.MemoryFootprint())
	}
	// Profiling work happens on the dispatching host thread: kernels
	// launched afterwards see it as dispatch delay.
	dev.AdvanceHost(tp)
	return out, nil
}

// Discard aborts an in-flight profiling window: collection is disabled and
// any buffered records are dropped without being parsed or charged to a
// ledger. The disable synchronizes the device first, so in-flight kernels
// from the aborted iteration complete, land in the buffer, and are thrown
// away here rather than polluting the next profiling window. Returns the
// number of records discarded.
func (t *Tracker) Discard(dev *simgpu.Device) (int, error) {
	s := t.session(dev)
	if err := s.DisableKernelActivity(); err != nil {
		return 0, err
	}
	recs, err := s.Flush()
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// Close releases all CUPTI sessions.
func (t *Tracker) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sessions {
		s.Close()
	}
	t.sessions = map[*simgpu.Device]*cuptisim.Session{}
}
