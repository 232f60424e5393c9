package simgpu

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// testSpec is a small, round-numbered device for exact timing assertions:
// 4 SMs × 64 cores at 1 GHz → 128 FLOP/ns per SM, 512 FLOP/ns device-wide;
// 100 GB/s → 100 B/ns; saturation threads = 0.25×4×1024 = 1024.
var testSpec = DeviceSpec{
	Name: "TestGPU", Arch: "Pascal",
	SMCount: 4, CoresPerSM: 64, ClockGHz: 1.0,
	MemGB: 4, MemBandwidthGBps: 100, MemType: "TEST",
	SharedMemPerSMKB:       48,
	MaxThreadsPerSM:        1024,
	MaxBlocksPerSM:         8,
	MaxThreadsPerBlock:     512,
	RegistersPerSM:         65536,
	WarpSize:               32,
	LaunchOverhead:         time.Microsecond,
	KernelLatencyFloor:     0,
	StreamCreateOverhead:   2 * time.Microsecond,
	SyncOverhead:           0,
	MemSaturationOccupancy: 0.25,
}

func computeKernel(name string, blocks, threads int, flops float64) *Kernel {
	return &Kernel{
		Name:   name,
		Config: LaunchConfig{Grid: D1(blocks), Block: D1(threads)},
		Cost:   Cost{FLOPs: flops},
	}
}

func memKernel(name string, blocks, threads int, bytes float64) *Kernel {
	return &Kernel{
		Name:   name,
		Config: LaunchConfig{Grid: D1(blocks), Block: D1(threads)},
		Cost:   Cost{Bytes: bytes},
	}
}

func launchOK(t *testing.T, d *Device, k *Kernel, s *Stream) {
	t.Helper()
	if err := d.Launch(k, s); err != nil {
		t.Fatalf("Launch(%s): %v", k.Name, err)
	}
}

func traceOK(t *testing.T, d *Device) []KernelRecord {
	t.Helper()
	recs, err := d.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	return recs
}

func TestSingleComputeKernelDuration(t *testing.T) {
	d := NewDevice(testSpec)
	// 4 blocks × 256 threads: one block per SM, each saturating its SM's
	// 128 FLOP/ns → 512000 FLOPs finish in exactly 1000 ns.
	launchOK(t, d, computeKernel("k", 4, 256, 512000), nil)
	recs := traceOK(t, d)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if got, want := recs[0].Duration(), 1000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
	// Start equals the issue time (launch overhead on host).
	if recs[0].Start != time.Microsecond {
		t.Fatalf("start = %v, want 1µs (one launch overhead)", recs[0].Start)
	}
}

func TestSmallGridUnderutilizesSM(t *testing.T) {
	d := NewDevice(testSpec)
	// 1 block × 32 threads on a 64-core SM: rate = 128 × 32/64 = 64 FLOP/ns.
	launchOK(t, d, computeKernel("tiny", 1, 32, 64000), nil)
	recs := traceOK(t, d)
	if got, want := recs[0].Duration(), 1000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

func TestMemoryKernelDuration(t *testing.T) {
	d := NewDevice(testSpec)
	// 4 blocks × 256 threads = 1024 resident threads = saturation →
	// full 100 B/ns; 100000 bytes take 1000 ns.
	launchOK(t, d, memKernel("m", 4, 256, 100000), nil)
	recs := traceOK(t, d)
	if got, want := recs[0].Duration(), 1000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

func TestMemoryKernelBelowSaturation(t *testing.T) {
	d := NewDevice(testSpec)
	// 1 block × 256 threads = 256/1024 of saturation → 25 B/ns.
	launchOK(t, d, memKernel("m", 1, 256, 25000), nil)
	recs := traceOK(t, d)
	if got, want := recs[0].Duration(), 1000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

func TestSameStreamSerializes(t *testing.T) {
	d := NewDevice(testSpec)
	s := mustStream(d)
	launchOK(t, d, computeKernel("a", 4, 256, 512000), s)
	launchOK(t, d, computeKernel("b", 4, 256, 512000), s)
	recs := traceOK(t, d)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[1].Start < recs[0].End {
		t.Fatalf("stream order violated: b starts %v before a ends %v", recs[1].Start, recs[0].End)
	}
}

func TestTwoStreamsOverlapOnIdleSMs(t *testing.T) {
	d := NewDevice(testSpec)
	s1, s2 := mustStream(d), mustStream(d)
	// Each kernel needs only 2 SMs and runs 10µs — long relative to the
	// 1µs launch overhead (the paper's Eq. 7 payoff condition). Together
	// they fill the device and should overlap nearly fully.
	launchOK(t, d, computeKernel("a", 2, 256, 2560000), s1)
	launchOK(t, d, computeKernel("b", 2, 256, 2560000), s2)
	recs := traceOK(t, d)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	overlap := minTime(recs[0].End, recs[1].End) - maxTime(recs[0].Start, recs[1].Start)
	if overlap <= 0 {
		t.Fatalf("kernels did not overlap: %v and %v", recs[0], recs[1])
	}
	// Total elapsed should be close to one kernel's solo duration (10µs)
	// plus the launch stagger, far below the serialized 20µs.
	total := maxTime(recs[0].End, recs[1].End) - minTime(recs[0].Start, recs[1].Start)
	if total > 12*time.Microsecond {
		t.Fatalf("no concurrency benefit: total %v", total)
	}
}

func TestContentionIsWorkConserving(t *testing.T) {
	d := NewDevice(testSpec)
	s1, s2 := mustStream(d), mustStream(d)
	// Both kernels want all 4 SMs; each SM is time-shared, so the pair
	// finishes in the same total time as running serially (2000 ns),
	// modulo the launch stagger.
	launchOK(t, d, computeKernel("a", 4, 256, 512000), s1)
	launchOK(t, d, computeKernel("b", 4, 256, 512000), s2)
	recs := traceOK(t, d)
	total := maxTime(recs[0].End, recs[1].End) - minTime(recs[0].Start, recs[1].Start)
	if total < 1900*time.Nanosecond || total > 2200*time.Nanosecond {
		t.Fatalf("work conservation violated: total = %v, want ≈2000ns", total)
	}
}

func TestDefaultStreamBarrier(t *testing.T) {
	d := NewDevice(testSpec)
	s1, s2 := mustStream(d), mustStream(d)
	launchOK(t, d, computeKernel("a", 1, 256, 128000), s1)
	launchOK(t, d, computeKernel("dflt", 1, 256, 128000), nil) // default stream
	launchOK(t, d, computeKernel("b", 1, 256, 128000), s2)
	recs := traceOK(t, d)
	byName := map[string]KernelRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["dflt"].Start < byName["a"].End {
		t.Fatalf("default-stream kernel started %v before prior work ended %v",
			byName["dflt"].Start, byName["a"].End)
	}
	if byName["b"].Start < byName["dflt"].End {
		t.Fatalf("kernel after default-stream barrier started %v before barrier ended %v",
			byName["b"].Start, byName["dflt"].End)
	}
}

func TestConcurrencyDegreeLimit(t *testing.T) {
	spec := testSpec
	spec.Arch = "Tesla" // MaxConcurrentKernels = 1
	d := NewDevice(spec)
	s1, s2 := mustStream(d), mustStream(d)
	launchOK(t, d, computeKernel("a", 1, 256, 128000), s1)
	launchOK(t, d, computeKernel("b", 1, 256, 128000), s2)
	recs := traceOK(t, d)
	overlap := minTime(recs[0].End, recs[1].End) - maxTime(recs[0].Start, recs[1].Start)
	if overlap > 0 {
		t.Fatalf("kernels overlapped %v on a 1-queue device", overlap)
	}
}

func TestSharedMemoryLimitsResidency(t *testing.T) {
	d := NewDevice(testSpec)
	// 48 KB/block means one block per SM; 8 blocks → two waves of 4 →
	// with each block at 128000 FLOPs and full SM rate, each wave takes
	// 1000ns, total 2000ns.
	k := &Kernel{
		Name:   "smem-heavy",
		Config: LaunchConfig{Grid: D1(8), Block: D1(256), SharedMemBytes: 48 * 1024},
		Cost:   Cost{FLOPs: 8 * 128000},
	}
	launchOK(t, d, k, nil)
	recs := traceOK(t, d)
	if got, want := recs[0].Duration(), 2000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v (two waves)", got, want)
	}
}

func TestBlockLimitCreatesWaves(t *testing.T) {
	d := NewDevice(testSpec)
	// 64 threads/block → per-SM limit is min(1024/64=16, MaxBlocksPerSM=8)=8.
	// 64 blocks → 2 waves over 4 SMs.
	k := computeKernel("many-blocks", 64, 64, 64*64000)
	launchOK(t, d, k, nil)
	recs := traceOK(t, d)
	// Each wave: 32 blocks over 4 SMs = 8 blocks×64 threads = 512 threads
	// per SM ≥ 64 cores → full rate. Wave work = 32×64000 = 2.048e6 FLOPs
	// over 512 FLOP/ns = 4000 ns; two waves = 8000 ns.
	if got, want := recs[0].Duration(), 8000*time.Nanosecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

func TestLatencyFloor(t *testing.T) {
	spec := testSpec
	spec.KernelLatencyFloor = 5 * time.Microsecond
	d := NewDevice(spec)
	launchOK(t, d, computeKernel("fast", 1, 64, 64), nil)
	recs := traceOK(t, d)
	if recs[0].Duration() < 5*time.Microsecond {
		t.Fatalf("duration %v below latency floor", recs[0].Duration())
	}
}

func TestHostClockAccrual(t *testing.T) {
	d := NewDevice(testSpec)
	s := mustStream(d) // 2µs
	for i := 0; i < 5; i++ {
		launchOK(t, d, computeKernel("k", 1, 64, 64000), s) // 1µs each
	}
	h := d.HostTime()
	if h != 7*time.Microsecond {
		t.Fatalf("host time = %v, want 7µs (2µs stream + 5×1µs launches)", h)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(testSpec)
	cases := []*Kernel{
		{Name: "", Config: LaunchConfig{Grid: D1(1), Block: D1(1)}},
		{Name: "big-block", Config: LaunchConfig{Grid: D1(1), Block: D1(2048)}},
		{Name: "big-smem", Config: LaunchConfig{Grid: D1(1), Block: D1(64), SharedMemBytes: 1 << 20}},
		{Name: "neg-cost", Config: LaunchConfig{Grid: D1(1), Block: D1(64)}, Cost: Cost{FLOPs: -1}},
	}
	for _, k := range cases {
		if err := d.Launch(k, nil); err == nil {
			t.Errorf("Launch(%q) succeeded, want error", k.Name)
		}
	}
	// Dim3{} has Count 1 via clamping, so "no-grid" actually validates;
	// ensure clamping keeps Count positive rather than failing.
	if (Dim3{}).Count() != 1 {
		t.Errorf("Dim3{}.Count() = %d, want 1", (Dim3{}).Count())
	}
}

func TestDestroyedStreamRejectsWork(t *testing.T) {
	d := NewDevice(testSpec)
	s := mustStream(d)
	if err := d.DestroyStream(s); err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(computeKernel("k", 1, 64, 64), s); err == nil {
		t.Fatal("launch on destroyed stream succeeded")
	}
	if err := d.DestroyStream(s); err == nil {
		t.Fatal("double destroy succeeded")
	}
	if err := d.DestroyStream(d.DefaultStream()); err == nil {
		t.Fatal("destroying default stream succeeded")
	}
}

// TestLaunchOnDestroyedStreamRecordsNothing: a launch refused for its
// destroyed stream fails before anything is recorded, like every other
// failed launch, and consumes no fault-injector occurrence.
func TestLaunchOnDestroyedStreamRecordsNothing(t *testing.T) {
	inj := FaultPlan{Seed: 1}.Injector()
	d := NewDevice(testSpec, WithInjector(inj))
	s := mustStream(d)
	if err := d.DestroyStream(s); err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(computeKernel("k", 1, 64, 64), s); err == nil {
		t.Fatal("launch on destroyed stream succeeded")
	}
	if ops := inj.Ops(); ops != 1 {
		t.Fatalf("injector saw %d operations, want only the stream creation", ops)
	}
	if recs := traceOK(t, d); len(recs) != 0 {
		t.Fatalf("refused launch left %d records, want none", len(recs))
	}
}

func TestResetClocks(t *testing.T) {
	d := NewDevice(testSpec)
	launchOK(t, d, computeKernel("k", 4, 256, 512000), nil)
	if _, err := d.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := d.ResetClocks(); err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != 0 {
		t.Fatalf("host time after reset = %v", d.HostTime())
	}
	recs := traceOK(t, d)
	if len(recs) != 0 {
		t.Fatalf("trace not cleared: %d records", len(recs))
	}
	// Device still usable after reset.
	launchOK(t, d, computeKernel("k2", 4, 256, 512000), nil)
	recs = traceOK(t, d)
	if len(recs) != 1 || recs[0].Name != "k2" {
		t.Fatalf("device unusable after reset: %v", recs)
	}
}

func TestStatsThroughputBounded(t *testing.T) {
	d := NewDevice(testSpec)
	streams := []*Stream{mustStream(d), mustStream(d), mustStream(d)}
	for i := 0; i < 30; i++ {
		launchOK(t, d, computeKernel("k", 1+i%4, 128, float64(50000+i*1000)), streams[i%3])
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	elapsedNS := float64(st.DeviceTime.Nanoseconds())
	if elapsedNS <= 0 {
		t.Fatal("no elapsed time")
	}
	peakPerNS := testSpec.PeakFlops() * 1e-9
	if st.FLOPsRetired/elapsedNS > peakPerNS*1.0001 {
		t.Fatalf("achieved %v FLOP/ns exceeds peak %v", st.FLOPsRetired/elapsedNS, peakPerNS)
	}
	maxResident := float64(testSpec.SMCount * testSpec.MaxThreadsPerSM)
	if st.ThreadNSIntegral/elapsedNS > maxResident*1.0001 {
		t.Fatalf("mean residency %v exceeds device capacity %v",
			st.ThreadNSIntegral/elapsedNS, maxResident)
	}
	if st.Launches != 30 {
		t.Fatalf("launches = %d", st.Launches)
	}
}

func TestTraceLimit(t *testing.T) {
	d := NewDevice(testSpec, WithTraceLimit(3))
	for i := 0; i < 10; i++ {
		launchOK(t, d, computeKernel("k", 1, 64, 1000), nil)
	}
	recs := traceOK(t, d)
	if len(recs) != 3 {
		t.Fatalf("trace kept %d records, want 3", len(recs))
	}
	st, _ := d.Stats()
	if st.TraceDropped != 7 {
		t.Fatalf("dropped = %d, want 7", st.TraceDropped)
	}
}

func TestSubscribeListener(t *testing.T) {
	d := NewDevice(testSpec)
	var got []string
	id := d.Subscribe(func(r KernelRecord) { got = append(got, r.Name) })
	launchOK(t, d, computeKernel("one", 1, 64, 1000), nil)
	traceOK(t, d)
	d.Unsubscribe(id)
	launchOK(t, d, computeKernel("two", 1, 64, 1000), nil)
	traceOK(t, d)
	if len(got) != 1 || got[0] != "one" {
		t.Fatalf("listener saw %v, want [one]", got)
	}
}

func minTime(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func TestOccupancyCalculations(t *testing.T) {
	cfg := LaunchConfig{Grid: D1(100), Block: D1(256), SharedMemBytes: 16 * 1024}
	// testSpec: by threads 1024/256=4, by blocks 8, by smem 48/16=3 → 3.
	if got := cfg.MaxBlocksResidentPerSM(testSpec); got != 3 {
		t.Fatalf("MaxBlocksResidentPerSM = %d, want 3", got)
	}
	occ := cfg.TheoreticalOccupancy(testSpec)
	want := float64(3*256) / 1024
	if math.Abs(occ-want) > 1e-12 {
		t.Fatalf("occupancy = %v, want %v", occ, want)
	}
	// Oversized block cannot be resident.
	big := LaunchConfig{Grid: D1(1), Block: D1(4096)}
	if big.MaxBlocksResidentPerSM(testSpec) != 0 {
		t.Fatal("oversized block reported as resident")
	}
}

func TestArchCatalog(t *testing.T) {
	if len(Architectures) != 6 {
		t.Fatalf("architecture catalog has %d entries, want 6 (Table 1)", len(Architectures))
	}
	kepler, ok := ArchByName("Kepler")
	if !ok || kepler.MaxConcurrentKernels != 32 {
		t.Fatalf("Kepler = %+v, want 32 concurrent kernels", kepler)
	}
	if _, ok := ArchByName("NotAnArch"); ok {
		t.Fatal("unknown arch resolved")
	}
	for _, spec := range DeviceCatalog {
		if err := spec.Validate(); err != nil {
			t.Errorf("catalog device %s invalid: %v", spec.Name, err)
		}
	}
	if p100, ok := DeviceByName("P100"); !ok || p100.SMCount != 56 {
		t.Fatalf("P100 lookup failed: %+v", p100)
	}
	names := CatalogNames()
	if len(names) != 3 {
		t.Fatalf("catalog names = %v", names)
	}
}

func TestDeviceSpecDerived(t *testing.T) {
	// K40C: 15 SMs × 192 cores × 2 × 0.745 GHz = 4.2924 TFLOP/s.
	got := TeslaK40C.PeakFlops()
	want := 15.0 * 192 * 2 * 0.745e9
	if math.Abs(got-want) > 1 {
		t.Fatalf("K40C peak = %v, want %v", got, want)
	}
	if TeslaK40C.MaxConcurrentKernels() != 32 {
		t.Fatalf("K40C concurrency = %d, want 32 (Kepler)", TeslaK40C.MaxConcurrentKernels())
	}
	if TeslaP100.MaxConcurrentKernels() != 128 {
		t.Fatalf("P100 concurrency = %d, want 128 (Pascal)", TeslaP100.MaxConcurrentKernels())
	}
}

func TestTimelineRendering(t *testing.T) {
	d := NewDevice(testSpec)
	s1, s2 := mustStream(d), mustStream(d)
	launchOK(t, d, &Kernel{Name: "im2col_gpu", Config: LaunchConfig{Grid: D1(2), Block: D1(128)}, Cost: Cost{Bytes: 10000}}, s1)
	launchOK(t, d, &Kernel{Name: "sgemm_128", Config: LaunchConfig{Grid: D1(2), Block: D1(128)}, Cost: Cost{FLOPs: 100000}}, s2)
	recs := traceOK(t, d)
	tl := Timeline(recs, 60)
	for _, want := range []string{"stream", "legend", "i=im2col_gpu", "g=sgemm_128"} {
		if !containsStr(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	if Timeline(nil, 60) == "" {
		t.Error("empty timeline should still render a placeholder")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMachineTopology(t *testing.T) {
	m := NewMachine(TeslaK40C, TeslaP100)
	if len(m.Devices()) != 2 {
		t.Fatalf("machine has %d devices", len(m.Devices()))
	}
	if m.Device(0).Name() != "K40C" || m.Device(1).Name() != "P100" {
		t.Fatal("device order not preserved")
	}
	if m.Device(1).ID() != 1 {
		t.Fatal("device id not assigned")
	}
	launchOK(t, m.Device(0), computeKernel("k", 1, 64, 64000), nil)
	if _, err := m.SynchronizeAll(); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyTiming(t *testing.T) {
	spec := testSpec
	spec.PCIeBandwidthGBps = 10 // 10 B/ns
	spec.MemcpyLatency = 2 * time.Microsecond
	d := NewDevice(spec)
	// 100 KB at 10 B/ns = 10µs + 2µs latency = 12µs.
	if err := d.MemcpyHostToDevice(100000, nil); err != nil {
		t.Fatal(err)
	}
	recs := traceOK(t, d)
	if len(recs) != 1 || recs[0].Name != "memcpyHtoD" {
		t.Fatalf("records = %v", recs)
	}
	if got, want := recs[0].Duration(), 12*time.Microsecond; got != want {
		t.Fatalf("memcpy duration = %v, want %v", got, want)
	}
}

func TestMemcpyRespectsStreamOrderButNotQueueSlots(t *testing.T) {
	spec := testSpec
	spec.Arch = "Tesla" // 1 concurrent kernel
	d := NewDevice(spec)
	s1, s2 := mustStream(d), mustStream(d)
	// A long kernel on s1 holds the single queue slot; a memcpy on s2 must
	// still proceed (copy engines are independent), while a second kernel
	// on s1 must wait for the first.
	launchOK(t, d, computeKernel("k1", 4, 256, 5120000), s1) // 10µs
	if err := d.MemcpyHostToDevice(10000, s2); err != nil {
		t.Fatal(err)
	}
	launchOK(t, d, computeKernel("k2", 1, 64, 64000), s1)
	recs := traceOK(t, d)
	byName := map[string]KernelRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["memcpyHtoD"].Start >= byName["k1"].End {
		t.Fatalf("memcpy waited for the kernel queue: %v vs %v",
			byName["memcpyHtoD"].Start, byName["k1"].End)
	}
	if byName["k2"].Start < byName["k1"].End {
		t.Fatal("stream order violated")
	}
}

func TestMemcpyErrors(t *testing.T) {
	d := NewDevice(testSpec)
	if err := d.MemcpyHostToDevice(-1, nil); err == nil {
		t.Fatal("negative size accepted")
	}
	s := mustStream(d)
	if err := d.DestroyStream(s); err != nil {
		t.Fatal(err)
	}
	if err := d.MemcpyDeviceToHost(100, s); err == nil {
		t.Fatal("destroyed stream accepted")
	}
	if d.Spec().PCIeBandwidth() != 12e9 {
		t.Fatalf("default PCIe bandwidth = %v", d.Spec().PCIeBandwidth())
	}
}

// TestDestroyRacesLaunch: a stream destroyed while another goroutine
// launches into it takes each launch whole or refuses it whole — every
// accepted launch completes and every refused one leaves no record. Run
// under -race.
func TestDestroyRacesLaunch(t *testing.T) {
	d := NewDevice(testSpec)
	s := mustStream(d)
	accepted := make(chan int)
	go func() {
		n := 0
		k := computeKernel("k", 1, 64, 64)
		for i := 0; i < 200; i++ {
			if d.Launch(k, s) == nil {
				n++
			}
		}
		accepted <- n
	}()
	if err := d.DestroyStream(s); err != nil {
		t.Fatal(err)
	}
	n := <-accepted
	if recs := traceOK(t, d); len(recs) != n {
		t.Fatalf("%d launches accepted, %d kernels completed", n, len(recs))
	}
}

// TestEngineSteadyStateAllocs is the simulator's allocation ceiling (part
// of `make alloc`): a warm device running a layer-shaped burst — eight
// kernels round-robin over four streams, the wide ones admitted in some ten
// waves each, a default-stream barrier kernel, one drain — allocates
// nothing, per launch or per admitted wave: execs with their dependency
// buffers, cohorts with their placements, the stream queues and the barrier
// tail set are all recycled engine storage, and the scheduling scans run on
// engine-owned scratch. It was 27 allocations per launch when every wave made
// its cohort and placement afresh, and 2.11 when each launch still made its
// exec, regrew its stream's queue and built the barrier's dependency list.
// The burst is run three ways: on the running clock, where no drain repeats
// and the drain memo records nothing; after a reset, replayed from the memo;
// and after a reset and a host advance never used before, missed and
// re-recorded in place.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	dev := NewDevice(TeslaP100)
	dev.SetTracing(false)
	var streams []*Stream
	for i := 0; i < 4; i++ {
		streams = append(streams, mustStream(dev))
	}
	wide := computeKernel("wide", 4096, 256, 1e9)
	narrow := memKernel("narrow", 8, 128, 1e6)
	const launches = 9
	burst := func() {
		for i := 0; i < launches-1; i++ {
			k := wide
			if i%2 == 1 {
				k = narrow
			}
			if err := dev.Launch(k, streams[i%len(streams)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Launch(narrow, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	var shift time.Duration
	reset := func(advance bool) {
		if err := dev.ResetClocks(); err != nil {
			t.Fatal(err)
		}
		if advance {
			shift++
			dev.AdvanceHost(shift)
		}
	}
	for _, c := range []struct {
		name     string
		run      func()
		replayed bool
	}{
		{"running clock", burst, false},
		{"replayed", func() { reset(false); burst() }, true},
		{"missed", func() { reset(true); burst() }, false},
	} {
		c.run()
		before, err := dev.Stats()
		if err != nil {
			t.Fatal(err)
		}
		perLaunch := testing.AllocsPerRun(50, c.run) / launches
		after, err := dev.Stats()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.2f allocations per launch", c.name, perLaunch)
		if perLaunch > 0.1 {
			t.Errorf("%s: steady-state burst allocates %.2f times per launch, ceiling 0.1", c.name, perLaunch)
		}
		replayed, launched := after.ReplayedLaunches-before.ReplayedLaunches, after.Launches-before.Launches
		want := int64(0)
		if c.replayed {
			want = launched
		}
		if replayed != want {
			t.Errorf("%s: %d of %d launches replayed, want %d", c.name, replayed, launched, want)
		}
	}
}

// TestStalledErrorNamesEarliestHead: the engine's stall diagnostic names
// the waiting head that was launched first, not the stream with the lowest
// or highest id.
func TestStalledErrorNamesEarliestHead(t *testing.T) {
	for round := 0; round < 8; round++ {
		g := newEngine(testSpec, nil)
		never := &kernelExec{name: "never"}
		for seq := 1; seq <= 6; seq++ {
			g.enqueue(&kernelExec{name: fmt.Sprintf("k%d", seq), seq: seq, streamID: (seq*5 + round) % 7,
				deps: []*kernelExec{never}, totalBlocks: 1, threads: 32})
		}
		err := g.drain()
		if err == nil || !strings.Contains(err.Error(), `6 streams waiting (first "k1" seq=1)`) {
			t.Fatalf("round %d: stall error = %v, want it to name k1", round, err)
		}
	}
}
