package simgpu

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Device is one simulated GPU. All methods are safe for concurrent use: the
// device clock, stream tails, and event engine live behind one mutex, so
// launches and synchronizes may arrive from any goroutine (the data-parallel
// trainer drives each replica's device from its own goroutine). The launch
// order observed under the device lock is the order that defines the virtual
// timeline. The device simulates time only: it runs no host computation, so
// the caller decides where and when a kernel's math runs (inline after the
// launch, on a host-pool lane, or not at all on a timing-only pass) without
// moving the timeline.
type Device struct {
	spec DeviceSpec
	id   int

	mu  sync.Mutex
	eng *engine

	def         *Stream
	nextStream  int
	activeStrms int

	host float64 // host dispatch timeline, ns
	seq  int

	// tails holds the non-default streams launched into since the last
	// default-stream kernel; that kernel depends on exactly their tails
	// (stream ordering covers everything earlier), which keeps the
	// legacy-barrier dependency lists O(#streams) instead of O(#kernels).
	tails       []*Stream
	lastDefault execRef

	records   []KernelRecord
	tracing   bool
	listeners []listener // in subscription order
	nextLst   int

	launches     int64
	syncs        int64
	streamsMade  int64
	traceDropped int64
	maxTrace     int

	// inj, when non-nil, is consulted at every failable driver entry point
	// and at record completion (see fault.go). recordsLost counts records
	// the injector dropped before tracing and listeners.
	inj         Injector
	recordsLost int64
}

// Option configures a Device at construction.
type Option func(*Device)

// WithTraceLimit caps the number of retained kernel records (0 = unlimited).
func WithTraceLimit(n int) Option {
	return func(d *Device) { d.maxTrace = n }
}

// WithInjector attaches a fault injector (see FaultPlan): stream creation,
// launches, transfers, synchronizations and profiler records consult it and
// fail, stall, or corrupt on its schedule. nil disables injection.
func WithInjector(inj Injector) Option {
	return func(d *Device) { d.inj = inj }
}

// NewDeviceChecked builds a device from a spec, surfacing an invalid spec as
// a constructor error instead of panicking.
func NewDeviceChecked(spec DeviceSpec, opts ...Option) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("simgpu: invalid device spec: %w", err)
	}
	d := &Device{spec: spec, tracing: true}
	d.eng = newEngine(spec, d.onComplete)
	d.def = &Stream{id: 0, dev: d, isDefault: true}
	d.nextStream = 1
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// NewDevice builds a device from a spec. It panics on an invalid spec, which
// is a programming error for the catalog specs (valid by construction); use
// NewDeviceChecked when the spec comes from configuration or user input.
func NewDevice(spec DeviceSpec, opts ...Option) *Device {
	d, err := NewDeviceChecked(spec, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the device's hardware description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Name returns the device model name.
func (d *Device) Name() string { return d.spec.Name }

// SetID tags the device with a machine-local ordinal (used by Machine).
func (d *Device) SetID(id int) { d.id = id }

// ID returns the machine-local ordinal.
func (d *Device) ID() int { return d.id }

// DefaultStream returns the device's default stream.
func (d *Device) DefaultStream() *Stream { return d.def }

// CreateStream makes a new concurrent stream, charging the host-side
// creation overhead to the dispatch timeline. Under fault injection the
// device may refuse (transiently), like cudaStreamCreate under driver
// pressure.
func (d *Device) CreateStream() (*Stream, error) {
	if d.inj != nil {
		if f := d.inj.Decide(OpCreateStream, ""); f.Err != nil {
			return nil, f.Err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Stream{id: d.nextStream, dev: d}
	d.nextStream++
	d.activeStrms++
	d.streamsMade++
	d.host += float64(d.spec.StreamCreateOverhead.Nanoseconds())
	return s, nil
}

// DestroyStream releases a stream. Destroying the default stream or a
// destroyed stream returns an error.
func (d *Device) DestroyStream(s *Stream) error {
	if s.dev != d {
		return fmt.Errorf("simgpu: stream belongs to a different device")
	}
	if s.isDefault {
		return fmt.Errorf("simgpu: cannot destroy the default stream")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.destroyed.Load() {
		return fmt.Errorf("simgpu: double destroy of %v", s)
	}
	s.destroyed.Store(true)
	d.activeStrms--
	return nil
}

// ActiveStreams returns the number of live non-default streams.
func (d *Device) ActiveStreams() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.activeStrms
}

// Launch submits a kernel to a stream, recording it under k.Tag. A nil
// stream means the default stream. The launch charges T_launch to the host
// dispatch timeline.
func (d *Device) Launch(k *Kernel, s *Stream) error {
	return d.LaunchTagged(k, k.Tag, s)
}

// LaunchTagged is Launch recording the kernel under tag instead of k.Tag:
// how a launcher that keys its records launches a shared descriptor without
// copying or writing to it.
func (d *Device) LaunchTagged(k *Kernel, tag string, s *Stream) error {
	if s == nil {
		s = d.def
	}
	if s.dev != d {
		return fmt.Errorf("simgpu: launch of %q on a stream of a different device", k.Name)
	}
	if err := k.validate(&d.spec); err != nil {
		return err
	}
	// A destroyed stream is refused, and the fault decision made, before
	// anything is recorded: a failed launch leaves no trace, so the caller,
	// which runs the kernel's math only after a successful launch, runs it
	// exactly once across retries — the property that keeps recovery
	// convergence-invariant even for non-idempotent (accumulating) kernels.
	// A stream destroyed after this check still takes the launch, as CUDA
	// completes work issued before cudaStreamDestroy.
	if s.destroyed.Load() {
		return fmt.Errorf("simgpu: launch of %q on destroyed %v", k.Name, s)
	}
	var hang float64
	if d.inj != nil {
		f := d.inj.Decide(OpLaunch, k.Name)
		if f.Err != nil {
			return f.Err
		}
		hang = float64(f.Delay.Nanoseconds())
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	blocks := k.Config.Blocks()
	d.submit(&kernelExec{
		name:          k.Name,
		tag:           tag,
		cfg:           k.Config,
		totalBlocks:   blocks,
		flopsPerBlock: k.Cost.FLOPs / float64(blocks),
		bytesPerBlock: k.Cost.Bytes / float64(blocks),
		threads:       k.Config.ThreadsPerBlock(),
		smem:          k.Config.SharedMemBytes,
		extra:         hang,
	}, s)
	return nil
}

// submit charges one launch to the host dispatch timeline, makes x an
// engine exec stamped with its issue time and sequence number, links its
// ordering edges — stream predecessor, then default-stream semantics — and
// enqueues it. The caller holds d.mu.
func (d *Device) submit(x *kernelExec, s *Stream) {
	d.host += float64(d.spec.LaunchOverhead.Nanoseconds())
	d.launches++
	d.seq++
	e := d.eng.newExec(x)
	e.seq, e.streamID, e.issue = d.seq, s.id, d.host

	if s.tail.pending() {
		e.deps = append(e.deps, s.tail.e)
	}
	if s.isDefault {
		// Legacy barrier: wait for the tail of every stream that has run
		// since the previous default-stream kernel (stream ordering makes
		// those tails cover all earlier work).
		for _, t := range d.tails {
			if t.tail.pending() {
				e.deps = append(e.deps, t.tail.e)
			}
			t.listed = false
		}
		clear(d.tails)
		d.tails = d.tails[:0]
		d.lastDefault = execRef{e, e.seq}
	} else {
		if d.lastDefault.pending() {
			e.deps = append(e.deps, d.lastDefault.e)
		}
		if !s.listed {
			s.listed = true
			d.tails = append(d.tails, s)
		}
	}
	s.tail = execRef{e, e.seq}
	d.eng.enqueue(e)
}

// memcpy enqueues a DMA transfer of the given size on a stream. Transfers
// respect stream ordering (and the default-stream barrier) but use the copy
// engines: they consume neither SM resources nor kernel queue slots.
func (d *Device) memcpy(name string, bytes int64, s *Stream) error {
	if bytes < 0 {
		return fmt.Errorf("simgpu: %s of negative size", name)
	}
	if s == nil {
		s = d.def
	}
	if s.dev != d {
		return fmt.Errorf("simgpu: %s on a stream of a different device", name)
	}
	if d.inj != nil {
		if f := d.inj.Decide(OpMemcpy, name); f.Err != nil {
			return f.Err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.destroyed.Load() {
		return fmt.Errorf("simgpu: %s on destroyed %v", name, s)
	}
	d.submit(&kernelExec{
		name:          name,
		cfg:           LaunchConfig{Grid: D1(1), Block: D1(1)},
		totalBlocks:   1,
		threads:       1,
		fixedDur:      float64(d.spec.MemcpyLatency.Nanoseconds()) + float64(bytes)/d.spec.PCIeBandwidth()*1e9,
		bytesPerBlock: float64(bytes),
	}, s)
	return nil
}

// MemcpyHostToDevice models cudaMemcpyAsync(…, HostToDevice) of the given
// size on a stream (nil = default stream).
func (d *Device) MemcpyHostToDevice(bytes int64, s *Stream) error {
	return d.memcpy("memcpyHtoD", bytes, s)
}

// MemcpyDeviceToHost models cudaMemcpyAsync(…, DeviceToHost).
func (d *Device) MemcpyDeviceToHost(bytes int64, s *Stream) error {
	return d.memcpy("memcpyDtoH", bytes, s)
}

// Synchronize drains all queued work, advances the host timeline to the
// device completion time plus the synchronization overhead, and returns the
// device clock.
func (d *Device) Synchronize() (time.Duration, error) {
	if d.inj != nil {
		// A failed synchronize loses no queued work: the drain simply has
		// not happened yet, exactly like a transiently failing
		// cudaDeviceSynchronize. A later call picks the work back up.
		if f := d.inj.Decide(OpSync, ""); f.Err != nil {
			return 0, f.Err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.eng.drain(); err != nil {
		return 0, err
	}
	d.syncs++
	if d.eng.now > d.host {
		d.host = d.eng.now
	}
	d.host += float64(d.spec.SyncOverhead.Nanoseconds())
	return time.Duration(d.eng.now), nil
}

// SyncTime is the iteration clock: it drains all queued work like
// Synchronize and returns the later of the device and host timelines — a
// step is over when its last kernel has completed and the dispatching host
// thread (launch, profiling and analysis overheads included) has caught up.
// That is the host timeline: the barrier never leaves it behind the device.
func (d *Device) SyncTime() (time.Duration, error) {
	if _, err := d.Synchronize(); err != nil {
		return 0, err
	}
	return d.HostTime(), nil
}

// Now returns the device clock after draining all pending work. Like
// Synchronize it is a full barrier in virtual time.
func (d *Device) Now() (time.Duration, error) {
	t, err := d.Synchronize()
	return t, err
}

// HostTime returns the host dispatch timeline (includes launch, stream
// creation and sync overheads).
func (d *Device) HostTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.host)
}

// AdvanceHost charges host-side work (e.g. GLP4NN's profiling parse and
// MILP analysis, the paper's T_p and T_a) to the dispatch timeline: kernels
// launched afterwards cannot start earlier than this work's completion.
func (d *Device) AdvanceHost(dt time.Duration) {
	if dt <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.host += float64(dt.Nanoseconds())
}

// ResetClocks drains pending work and resets both clocks and the trace,
// keeping the trace buffer's capacity. It is the experiment-boundary
// operation: streams stay valid.
func (d *Device) ResetClocks() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.eng.drain(); err != nil {
		return err
	}
	d.eng.reset()
	d.host = 0
	d.records = d.records[:0]
	d.traceDropped = 0
	return nil
}

// SetTracing switches kernel-record retention on or off (listeners always
// fire).
func (d *Device) SetTracing(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracing = on
}

// Trace drains pending work and returns a copy of the retained records in
// completion order.
func (d *Device) Trace() ([]KernelRecord, error) {
	if _, err := d.Synchronize(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]KernelRecord, len(d.records))
	copy(out, d.records)
	return out, nil
}

// LaunchSeq returns the issue-order sequence number of the most recently
// launched kernel or memcpy (0 before the first launch). Unlike Now, it
// does not drain the engine or touch the clocks, so it is safe to sample
// mid-step: a caller can snapshot it at a host-side event and later, after
// the step's drain, recover the simulated completion time of everything
// issued up to that event from the records' Seq fields.
func (d *Device) LaunchSeq() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Subscribe registers a completion listener and returns an unsubscribe
// token. Listeners run in subscription order, under the device lock during
// drains: they must not call device methods.
func (d *Device) Subscribe(fn func(KernelRecord)) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextLst
	d.nextLst++
	d.listeners = append(d.listeners, listener{id, fn})
	return id
}

// Unsubscribe removes a listener registered with Subscribe.
func (d *Device) Unsubscribe(id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.listeners = slices.DeleteFunc(d.listeners, func(l listener) bool { return l.id == id })
}

// listener is one Subscribe registration.
type listener struct {
	id int
	fn func(KernelRecord)
}

func (d *Device) onComplete(e *kernelExec) {
	r := KernelRecord{
		Name:           e.name,
		Tag:            e.tag,
		StreamID:       e.streamID,
		Seq:            e.seq,
		Grid:           e.cfg.Grid,
		Block:          e.cfg.Block,
		RegsPerThread:  e.cfg.RegsPerThread,
		SharedMemBytes: e.cfg.SharedMemBytes,
		Queued:         time.Duration(e.issue),
		Start:          time.Duration(e.start),
		End:            time.Duration(e.end),
		FLOPs:          float64(e.totalBlocks) * e.flopsPerBlock,
		Bytes:          float64(e.totalBlocks) * e.bytesPerBlock,
	}
	if d.inj != nil {
		f := d.inj.Decide(OpRecord, e.name)
		if f.Drop {
			// Lost before it reached any buffer: neither the trace nor the
			// profiling listeners ever see it.
			d.recordsLost++
			return
		}
		if f.Truncate {
			r.Queued, r.Start, r.End = 0, 0, 0
		}
	}
	if d.tracing {
		if d.maxTrace > 0 && len(d.records) >= d.maxTrace {
			d.traceDropped++
		} else {
			d.records = append(d.records, r)
		}
	}
	for _, l := range d.listeners {
		l.fn(r)
	}
}

// Stats is a snapshot of device counters, used by tests and reports.
type Stats struct {
	Launches     int64
	Syncs        int64
	StreamsMade  int64
	TraceDropped int64
	// RecordsLost counts completed kernel records the fault injector
	// dropped before tracing and profiling listeners.
	RecordsLost int64
	// ReplayedLaunches counts launches whose drain replayed the outcome of
	// an identical earlier one instead of simulating it (DESIGN.md §5).
	ReplayedLaunches int64
	// ThreadNSIntegral is ∫ resident threads dt over the simulation, in
	// thread-nanoseconds; dividing by elapsed×maxResident gives achieved
	// occupancy.
	ThreadNSIntegral float64
	FLOPsRetired     float64
	BytesRetired     float64
	DeviceTime       time.Duration
}

// Stats drains pending work and returns the counter snapshot.
func (d *Device) Stats() (Stats, error) {
	if _, err := d.Synchronize(); err != nil {
		return Stats{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Launches:         d.launches,
		Syncs:            d.syncs,
		StreamsMade:      d.streamsMade,
		TraceDropped:     d.traceDropped,
		RecordsLost:      d.recordsLost,
		ReplayedLaunches: d.eng.replayed,
		ThreadNSIntegral: d.eng.threadNSIntegral,
		FLOPsRetired:     d.eng.flopsRetired,
		BytesRetired:     d.eng.bytesRetired,
		DeviceTime:       time.Duration(d.eng.now),
	}, nil
}

// Machine is a host with one or more GPUs, mirroring the paper's topology:
// GLP4NN shares one resource tracker and stream manager per machine and
// gives each device a private analyzer and scheduler.
type Machine struct {
	devices []*Device
}

// NewMachine builds a machine over the given device specs.
func NewMachine(specs ...DeviceSpec) *Machine {
	m := &Machine{}
	for i, s := range specs {
		d := NewDevice(s)
		d.SetID(i)
		m.devices = append(m.devices, d)
	}
	return m
}

// NewMachineFromDevices builds a machine over pre-constructed devices (e.g.
// devices carrying fault injectors or trace limits). Device ids are
// reassigned to machine-local ordinals.
func NewMachineFromDevices(devs ...*Device) *Machine {
	m := &Machine{}
	for i, d := range devs {
		d.SetID(i)
		m.devices = append(m.devices, d)
	}
	return m
}

// Devices returns the machine's GPUs in id order.
func (m *Machine) Devices() []*Device { return m.devices }

// Device returns GPU i.
func (m *Machine) Device(i int) *Device { return m.devices[i] }

// SynchronizeAll drains every device and returns the max device clock.
func (m *Machine) SynchronizeAll() (time.Duration, error) {
	var max time.Duration
	for _, d := range m.devices {
		t, err := d.Synchronize()
		if err != nil {
			return 0, err
		}
		if t > max {
			max = t
		}
	}
	return max, nil
}
