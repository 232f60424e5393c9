// Package simgpu is a discrete-event simulator of a CUDA-capable GPU. It is
// the hardware substrate for this reproduction of GLP4NN (ICPP 2018): the
// paper's results depend on concurrent kernel execution on NVIDIA devices
// (Tesla K40C, Tesla P100, Titan XP), which pure Go cannot drive natively.
//
// The simulator models the first-order mechanisms the paper's gains and
// losses come from:
//
//   - per-SM occupancy limits (resident threads, resident blocks, shared
//     memory) that determine how many thread blocks — possibly from
//     different kernels — co-reside on one SM;
//   - the architecture's maximum number of concurrent kernels (hardware
//     work queues, Table 1 of the paper);
//   - CUDA stream semantics: in-order execution within a stream, potential
//     overlap across streams, legacy default-stream barriers;
//   - a host dispatch timeline with a fixed per-launch overhead T_launch
//     (the quantity the paper's Eq. 7 compares kernel durations against);
//   - a two-resource progress model: SM compute throughput and global
//     memory bandwidth are shared, work-conservingly, among all resident
//     block cohorts.
//
// All timing is virtual (an int-free float64 nanosecond clock). The device
// simulates time only: the kernel *computation* is the caller's, run on the
// host after a successful launch (dnn.Context.Dispatch), so numerical
// results are real while performance results are simulated.
package simgpu

import (
	"fmt"
	"sort"
	"time"
)

// Arch describes one GPU microarchitecture generation. The catalog mirrors
// Table 1 of the paper ("Overview of GPU architecture features").
type Arch struct {
	Name                 string
	CUDAStreams          bool
	DynamicParallelism   bool
	MaxConcurrentKernels int
	UVM                  bool
	TensorCores          bool
}

// Architectures is Table 1 of the paper.
var Architectures = []Arch{
	{Name: "Tesla", CUDAStreams: false, DynamicParallelism: false, MaxConcurrentKernels: 1, UVM: false, TensorCores: false},
	{Name: "Fermi", CUDAStreams: true, DynamicParallelism: false, MaxConcurrentKernels: 16, UVM: false, TensorCores: false},
	{Name: "Kepler", CUDAStreams: true, DynamicParallelism: true, MaxConcurrentKernels: 32, UVM: false, TensorCores: false},
	{Name: "Maxwell", CUDAStreams: true, DynamicParallelism: true, MaxConcurrentKernels: 16, UVM: false, TensorCores: false},
	{Name: "Pascal", CUDAStreams: true, DynamicParallelism: true, MaxConcurrentKernels: 128, UVM: true, TensorCores: false},
	{Name: "Volta", CUDAStreams: true, DynamicParallelism: true, MaxConcurrentKernels: 128, UVM: true, TensorCores: true},
}

// ArchByName returns the named architecture entry.
func ArchByName(name string) (Arch, bool) {
	for _, a := range Architectures {
		if a.Name == name {
			return a, true
		}
	}
	return Arch{}, false
}

// DeviceSpec is a concrete GPU model. The three catalog entries mirror
// Table 3 of the paper ("Hardware profile"). Fields beyond Table 3 (resident
// thread/block limits, warp size, launch overhead, latency floor) use the
// vendor-documented values for the generation, and the timing-only knobs are
// calibrated so single-kernel layer times land in the paper's reported
// magnitude (see DESIGN.md §6).
type DeviceSpec struct {
	Name string
	Arch string // key into Architectures

	SMCount    int
	CoresPerSM int
	ClockGHz   float64

	MemGB            int
	MemBandwidthGBps float64
	MemType          string

	SharedMemPerSMKB int // paper Table 3: "L1 Cache / Shared Memory per SM"

	MaxThreadsPerSM    int
	MaxBlocksPerSM     int // ρ_max in the paper's Table 2
	MaxThreadsPerBlock int
	RegistersPerSM     int
	WarpSize           int

	// LaunchOverhead is the host-side cost of one kernel launch (T_launch
	// in the paper's Eq. 7).
	LaunchOverhead time.Duration
	// KernelLatencyFloor is the minimum wall time of any kernel, modeling
	// fixed front-end costs.
	KernelLatencyFloor time.Duration
	// StreamCreateOverhead is the host cost of creating one CUDA stream
	// (paid when the stream pool is initialized).
	StreamCreateOverhead time.Duration
	// SyncOverhead is the host cost of a device or stream synchronization
	// call, in addition to any waiting.
	SyncOverhead time.Duration
	// MemSaturationOccupancy is the fraction of the device's maximum
	// resident threads needed to saturate DRAM bandwidth; below it the
	// achievable bandwidth scales linearly with resident threads.
	MemSaturationOccupancy float64
	// PCIeBandwidthGBps is the host↔device copy bandwidth (0 defaults to
	// an effective 16-lane PCIe 3.0 link).
	PCIeBandwidthGBps float64
	// MemcpyLatency is the fixed setup cost of one async copy.
	MemcpyLatency time.Duration
}

// PCIeBandwidth returns the host↔device bandwidth in bytes/second.
func (s DeviceSpec) PCIeBandwidth() float64 {
	if s.PCIeBandwidthGBps <= 0 {
		return 12e9
	}
	return s.PCIeBandwidthGBps * 1e9
}

// MemcpyDuration returns the modeled device time of one host↔device copy
// of the given size: the fixed async-copy setup latency plus the transfer
// at PCIe bandwidth (the same first-order model Device.MemcpyHostToDevice
// charges to the timeline).
func (s DeviceSpec) MemcpyDuration(bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	return s.MemcpyLatency + time.Duration(float64(bytes)/s.PCIeBandwidth()*1e9)
}

// MaxConcurrentKernels returns the architecture's hardware-queue limit (C in
// the paper's Eq. 6).
func (s DeviceSpec) MaxConcurrentKernels() int {
	a, ok := ArchByName(s.Arch)
	if !ok || a.MaxConcurrentKernels <= 0 {
		return 1
	}
	return a.MaxConcurrentKernels
}

// PeakFlopsPerSM returns single-precision FLOP/s of one SM (FMA counted as
// two operations).
func (s DeviceSpec) PeakFlopsPerSM() float64 {
	return float64(s.CoresPerSM) * 2 * s.ClockGHz * 1e9
}

// PeakFlops returns device-wide single-precision FLOP/s.
func (s DeviceSpec) PeakFlops() float64 {
	return s.PeakFlopsPerSM() * float64(s.SMCount)
}

// MemBandwidth returns DRAM bandwidth in bytes per second.
func (s DeviceSpec) MemBandwidth() float64 {
	return s.MemBandwidthGBps * 1e9
}

// SharedMemPerSM returns shared memory per SM in bytes (sm_max).
func (s DeviceSpec) SharedMemPerSM() int {
	return s.SharedMemPerSMKB * 1024
}

// Validate checks the spec for internally consistent values.
func (s DeviceSpec) Validate() error {
	switch {
	case s.SMCount <= 0:
		return fmt.Errorf("simgpu: %s: SMCount must be positive", s.Name)
	case s.CoresPerSM <= 0:
		return fmt.Errorf("simgpu: %s: CoresPerSM must be positive", s.Name)
	case s.ClockGHz <= 0:
		return fmt.Errorf("simgpu: %s: ClockGHz must be positive", s.Name)
	case s.MaxThreadsPerSM <= 0 || s.MaxBlocksPerSM <= 0 || s.MaxThreadsPerBlock <= 0:
		return fmt.Errorf("simgpu: %s: occupancy limits must be positive", s.Name)
	case s.WarpSize <= 0:
		return fmt.Errorf("simgpu: %s: WarpSize must be positive", s.Name)
	case s.MemBandwidthGBps <= 0:
		return fmt.Errorf("simgpu: %s: MemBandwidthGBps must be positive", s.Name)
	case s.SharedMemPerSMKB < 0:
		return fmt.Errorf("simgpu: %s: SharedMemPerSMKB must be non-negative", s.Name)
	}
	if _, ok := ArchByName(s.Arch); !ok {
		return fmt.Errorf("simgpu: %s: unknown architecture %q", s.Name, s.Arch)
	}
	return nil
}

// Catalog entries for the paper's three test machines (Table 3).
var (
	// TeslaK40C is the Kepler-generation card of the paper's first machine.
	TeslaK40C = DeviceSpec{
		Name: "K40C", Arch: "Kepler",
		SMCount: 15, CoresPerSM: 192, ClockGHz: 0.745,
		MemGB: 12, MemBandwidthGBps: 288, MemType: "GDDR5",
		SharedMemPerSMKB:       48,
		MaxThreadsPerSM:        2048,
		MaxBlocksPerSM:         16,
		MaxThreadsPerBlock:     1024,
		RegistersPerSM:         65536,
		WarpSize:               32,
		LaunchOverhead:         9 * time.Microsecond,
		KernelLatencyFloor:     4 * time.Microsecond,
		StreamCreateOverhead:   14 * time.Microsecond,
		SyncOverhead:           6 * time.Microsecond,
		MemSaturationOccupancy: 0.25,
		PCIeBandwidthGBps:      12,
		MemcpyLatency:          8 * time.Microsecond,
	}

	// TeslaP100 is the Pascal-generation card of the paper's second machine.
	TeslaP100 = DeviceSpec{
		Name: "P100", Arch: "Pascal",
		SMCount: 56, CoresPerSM: 64, ClockGHz: 1.189,
		MemGB: 12, MemBandwidthGBps: 549, MemType: "HBM2.0",
		SharedMemPerSMKB:       64,
		MaxThreadsPerSM:        2048,
		MaxBlocksPerSM:         32,
		MaxThreadsPerBlock:     1024,
		RegistersPerSM:         65536,
		WarpSize:               32,
		LaunchOverhead:         6 * time.Microsecond,
		KernelLatencyFloor:     3 * time.Microsecond,
		StreamCreateOverhead:   10 * time.Microsecond,
		SyncOverhead:           4 * time.Microsecond,
		MemSaturationOccupancy: 0.25,
		PCIeBandwidthGBps:      12,
		MemcpyLatency:          8 * time.Microsecond,
	}

	// TitanXP is the Pascal-generation card of the paper's third machine.
	TitanXP = DeviceSpec{
		Name: "TitanXP", Arch: "Pascal",
		SMCount: 30, CoresPerSM: 128, ClockGHz: 1.455,
		MemGB: 12, MemBandwidthGBps: 547.7, MemType: "GDDR5X",
		SharedMemPerSMKB:       48,
		MaxThreadsPerSM:        2048,
		MaxBlocksPerSM:         32,
		MaxThreadsPerBlock:     1024,
		RegistersPerSM:         65536,
		WarpSize:               32,
		LaunchOverhead:         5500 * time.Nanosecond,
		KernelLatencyFloor:     3 * time.Microsecond,
		StreamCreateOverhead:   10 * time.Microsecond,
		SyncOverhead:           4 * time.Microsecond,
		MemSaturationOccupancy: 0.25,
		PCIeBandwidthGBps:      12,
		MemcpyLatency:          8 * time.Microsecond,
	}
)

// DeviceCatalog is the paper's hardware profile (Table 3), in paper order.
var DeviceCatalog = []DeviceSpec{TeslaK40C, TeslaP100, TitanXP}

// DeviceByName returns the catalog spec with the given name.
func DeviceByName(name string) (DeviceSpec, bool) {
	for _, d := range DeviceCatalog {
		if d.Name == name {
			return d, true
		}
	}
	return DeviceSpec{}, false
}

// CatalogNames lists the catalog device names sorted alphabetically.
func CatalogNames() []string {
	names := make([]string, 0, len(DeviceCatalog))
	for _, d := range DeviceCatalog {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}
