package simgpu

import "fmt"

// Dim3 is a CUDA grid or block dimension triple.
type Dim3 struct {
	X, Y, Z int
}

// D1 builds a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 builds a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total number of elements (threads or blocks).
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

func (d Dim3) String() string {
	return fmt.Sprintf("[%d,%d,%d]", d.X, d.Y, d.Z)
}

// LaunchConfig is the execution configuration of one kernel launch. This is
// exactly what the paper's resource tracker collects at runtime (grid and
// block dimensions, registers per thread, shared memory per block).
type LaunchConfig struct {
	Grid           Dim3
	Block          Dim3
	RegsPerThread  int
	SharedMemBytes int // static + dynamic shared memory per block
}

// Blocks returns the total number of thread blocks (#β_Ki in the paper).
func (c LaunchConfig) Blocks() int { return c.Grid.Count() }

// ThreadsPerBlock returns τ_Ki in the paper.
func (c LaunchConfig) ThreadsPerBlock() int { return c.Block.Count() }

// Cost is the simulator's work descriptor for one kernel launch: how much
// arithmetic and DRAM traffic the whole grid performs. Values are
// *effective* work — kernel implementations fold their achievable-efficiency
// factors in (e.g. an SGEMM at 60 % of peak reports FLOPs/0.6).
type Cost struct {
	FLOPs float64 // effective floating-point work of the whole grid
	Bytes float64 // effective DRAM traffic of the whole grid
}

// Add accumulates another cost.
func (c Cost) Add(o Cost) Cost {
	return Cost{FLOPs: c.FLOPs + o.FLOPs, Bytes: c.Bytes + o.Bytes}
}

// Kernel is one launchable unit of GPU work, as a descriptor: a name (as
// the profiler will report it), a launch configuration, a cost descriptor
// and a tag. The device simulates only *when* the kernel would have run; the
// real computation is the caller's, run after a successful launch (see
// dnn.Context.Dispatch). A descriptor is built once and launched by
// reference any number of times: nothing on the launch path writes to it.
type Kernel struct {
	Name   string
	Config LaunchConfig
	Cost   Cost
	// Tag is free-form metadata (layer name, batch index) carried into the
	// kernel record for timeline analysis.
	Tag string
	// KeyTag is Tag qualified by the layer key the kernel launches under,
	// "key|tag", resolved once when the descriptor is built. A launcher
	// that keys its records (GLP4NN's runtime) records it in place of Tag
	// when the key matches, and joins the two itself otherwise.
	KeyTag string
}

// Validate checks the launch against device limits, mirroring the checks the
// CUDA driver performs at launch time.
func (k *Kernel) Validate(spec DeviceSpec) error { return k.validate(&spec) }

// validate is Validate without copying the spec, for the launch path.
func (k *Kernel) validate(spec *DeviceSpec) error {
	if k.Name == "" {
		return fmt.Errorf("simgpu: kernel with empty name")
	}
	if k.Config.Blocks() <= 0 {
		return fmt.Errorf("simgpu: kernel %s: empty grid %v", k.Name, k.Config.Grid)
	}
	tpb := k.Config.ThreadsPerBlock()
	if tpb <= 0 {
		return fmt.Errorf("simgpu: kernel %s: empty block %v", k.Name, k.Config.Block)
	}
	if tpb > spec.MaxThreadsPerBlock {
		return fmt.Errorf("simgpu: kernel %s: %d threads/block exceeds device limit %d",
			k.Name, tpb, spec.MaxThreadsPerBlock)
	}
	if k.Config.SharedMemBytes < 0 {
		return fmt.Errorf("simgpu: kernel %s: negative shared memory", k.Name)
	}
	if k.Config.SharedMemBytes > spec.SharedMemPerSM() {
		return fmt.Errorf("simgpu: kernel %s: %d B shared memory exceeds per-SM capacity %d B",
			k.Name, k.Config.SharedMemBytes, spec.SharedMemPerSM())
	}
	if k.Cost.FLOPs < 0 || k.Cost.Bytes < 0 {
		return fmt.Errorf("simgpu: kernel %s: negative cost", k.Name)
	}
	return nil
}

// TheoreticalOccupancy returns the fraction of an SM's resident-thread limit
// this kernel can use on its own, considering thread, block and shared-memory
// limits — the classic CUDA occupancy calculation, used in tests and by the
// analyzer's diagnostics.
func (c LaunchConfig) TheoreticalOccupancy(spec DeviceSpec) float64 {
	perSM := c.MaxBlocksResidentPerSM(spec)
	if perSM <= 0 {
		return 0
	}
	threads := perSM * c.ThreadsPerBlock()
	if threads > spec.MaxThreadsPerSM {
		threads = spec.MaxThreadsPerSM
	}
	return float64(threads) / float64(spec.MaxThreadsPerSM)
}

// MaxBlocksResidentPerSM returns how many blocks of this configuration fit
// on one empty SM.
func (c LaunchConfig) MaxBlocksResidentPerSM(spec DeviceSpec) int {
	tpb := c.ThreadsPerBlock()
	if tpb <= 0 || tpb > spec.MaxThreadsPerSM {
		return 0
	}
	byThreads := spec.MaxThreadsPerSM / tpb
	byBlocks := spec.MaxBlocksPerSM
	n := byThreads
	if byBlocks < n {
		n = byBlocks
	}
	if c.SharedMemBytes > 0 {
		bySmem := spec.SharedMemPerSM() / c.SharedMemBytes
		if bySmem < n {
			n = bySmem
		}
	}
	return n
}
