package bench

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/simgpu"
)

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func runTable1(cfg Config, w io.Writer) error {
	t := newTable("Architecture", "CUDA Streams", "Dynamic Parallelism", "Max Concurrent Kernels", "UVM", "Tensor Cores")
	for _, a := range simgpu.Architectures {
		t.add(a.Name, yn(a.CUDAStreams), yn(a.DynamicParallelism),
			fmt.Sprintf("%d", a.MaxConcurrentKernels), yn(a.UVM), yn(a.TensorCores))
	}
	t.write(w)
	return nil
}

func runTable3(cfg Config, w io.Writer) error {
	t := newTable("GPU", "Generation", "Core Count", "Clock (GHz)", "Mem (GB)", "BW (GB/s)", "Mem Type", "Shared/SM (KB)", "Peak SP (TFLOP/s)")
	for _, d := range simgpu.DeviceCatalog {
		t.add(d.Name, d.Arch,
			fmt.Sprintf("%d x %d", d.SMCount, d.CoresPerSM),
			fmt.Sprintf("%.3f", d.ClockGHz),
			fmt.Sprintf("%d", d.MemGB),
			fmt.Sprintf("%.1f", d.MemBandwidthGBps),
			d.MemType,
			fmt.Sprintf("%d", d.SharedMemPerSMKB),
			fmt.Sprintf("%.2f", d.PeakFlops()/1e12))
	}
	t.write(w)
	return nil
}

func runTable4(cfg Config, w io.Writer) error {
	t := newTable("Dataset", "Training Images", "Test Images", "Pixels", "Classes")
	for _, s := range data.Catalog {
		t.add(s.Name,
			fmt.Sprintf("%d", s.TrainImages),
			fmt.Sprintf("%d", s.TestImages),
			fmt.Sprintf("%dx%d", s.Height, s.Width),
			fmt.Sprintf("%d", s.Classes))
	}
	t.write(w)
	return nil
}

func runTable5(cfg Config, w io.Writer) error {
	t := newTable("Net", "Layer", "N", "Ci", "H/W", "Co", "F", "S", "P")
	for _, r := range models.LayerTable {
		t.add(r.Net, r.Layer,
			fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.Ci), fmt.Sprintf("%d", r.HW),
			fmt.Sprintf("%d", r.Co), fmt.Sprintf("%d", r.F), fmt.Sprintf("%d", r.S),
			fmt.Sprintf("%d", r.P))
	}
	t.write(w)
	return nil
}
