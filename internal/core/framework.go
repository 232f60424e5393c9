package core

import (
	"errors"
	"sync"

	"repro/internal/simgpu"
)

// Framework wires GLP4NN's modules with the paper's Fig. 5 topology: the
// resource tracker and stream manager are shared across all GPUs of the
// machine; each device gets a private kernel analyzer and runtime
// scheduler.
type Framework struct {
	tracker *Tracker
	manager *StreamManager
	model   Model

	mu       sync.Mutex
	runtimes map[*simgpu.Device]*Runtime
}

// New builds an empty framework with the paper's MILP concurrency model;
// runtimes are created per device on demand.
func New() *Framework {
	return NewWithModel(MILPModel{})
}

// NewWithModel builds a framework whose per-device analyzers use a custom
// concurrency model (the kernel analyzer is customizable by design).
func NewWithModel(m Model) *Framework {
	if m == nil {
		m = MILPModel{}
	}
	return &Framework{
		tracker:  NewTracker(),
		manager:  NewStreamManager(),
		model:    m,
		runtimes: map[*simgpu.Device]*Runtime{},
	}
}

// Tracker returns the shared resource tracker.
func (f *Framework) Tracker() *Tracker { return f.tracker }

// StreamManager returns the shared stream manager.
func (f *Framework) StreamManager() *StreamManager { return f.manager }

// Runtime returns (creating on demand) the device's runtime scheduler. Use
// it as the dnn.Launcher of a training context to run a net under GLP4NN.
func (f *Framework) Runtime(dev *simgpu.Device) *Runtime {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.runtimes[dev]
	if r == nil {
		ledger := &Ledger{}
		r = newRuntime(dev, f.tracker, NewAnalyzerWithModel(dev.Spec(), ledger, f.model), f.manager.Pool(dev), ledger)
		f.runtimes[dev] = r
	}
	return r
}

// Devices returns the devices with active runtimes.
func (f *Framework) Devices() []*simgpu.Device {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*simgpu.Device, 0, len(f.runtimes))
	for d := range f.runtimes {
		out = append(out, d)
	}
	return out
}

// Close detaches every runtime's completion listener from its device — a
// device may outlive the framework, and must neither call nor keep alive a
// dead runtime — and releases the profiling sessions.
func (f *Framework) Close() {
	f.mu.Lock()
	for dev, r := range f.runtimes {
		dev.Unsubscribe(r.listener)
	}
	f.mu.Unlock()
	f.tracker.Close()
}

// FixedLauncher is the baseline launcher for the paper's motivation
// experiments (Figs. 2–4): a fixed-size stream pool with plain round-robin
// dispatch and no profiling or analysis. Width 1 reduces to naive Caffe.
type FixedLauncher struct {
	dev     *simgpu.Device
	streams []*simgpu.Stream
}

// NewFixedLauncher creates a launcher with n pool streams on the device.
// Stream creation is best-effort: if the device refuses a stream, the pool
// stops growing there and dispatch wraps around the streams that exist
// (width 0 degenerates to the default stream).
func NewFixedLauncher(dev *simgpu.Device, n int) *FixedLauncher {
	l := &FixedLauncher{dev: dev}
	for i := 0; i < n; i++ {
		s, err := dev.CreateStream()
		if err != nil {
			break
		}
		l.streams = append(l.streams, s)
	}
	return l
}

// BeginLayer implements dnn.Launcher.
func (l *FixedLauncher) BeginLayer(string) {}

// Launch implements dnn.Launcher.
func (l *FixedLauncher) Launch(k *simgpu.Kernel, chain int) error {
	var s *simgpu.Stream
	if chain >= 0 && len(l.streams) > 0 {
		s = l.streams[chain%len(l.streams)]
	}
	return l.dev.Launch(k, s)
}

// Sync implements dnn.Launcher.
func (l *FixedLauncher) Sync() error {
	if len(l.streams) <= 1 {
		return nil // single stream: ordering suffices, like naive Caffe
	}
	_, err := l.dev.Synchronize()
	return err
}

// Width implements dnn.Launcher.
func (l *FixedLauncher) Width() int {
	if len(l.streams) < 1 {
		return 1
	}
	return len(l.streams)
}

// Release destroys the pool streams. Like StreamPool.Release, a destroy
// failure does not strand the remaining streams: all are attempted, the
// slice is cleared, and the errors are joined.
func (l *FixedLauncher) Release() error {
	var errs []error
	for _, s := range l.streams {
		if err := l.dev.DestroyStream(s); err != nil {
			errs = append(errs, err)
		}
	}
	l.streams = nil
	return errors.Join(errs...)
}
