// Command glp4nn-info prints the host micro-kernel ISA ladder, the
// simulated hardware and dataset catalogs (the paper's Tables 1, 3 and 4)
// and each workload's fusable GEMM-epilogue sites; with -occupancy the CUDA
// occupancy calculation for a kernel launch configuration on each device,
// and with -dag the operator-level dependency DAG of each workload (depth,
// maximum wavefront, critical path — the inter-layer parallelism the DAG
// scheduler can exploit).
//
// Examples:
//
//	glp4nn-info
//	glp4nn-info -occupancy -threads 256 -smem 16384
//	glp4nn-info -dag
//	glp4nn-info -plans -net CIFAR10 -device P100
//	glp4nn-info -plans -checkpoint ckpt/checkpoint.glpc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

func main() {
	var (
		occupancy = flag.Bool("occupancy", false, "print occupancy for a launch config on each device")
		threads   = flag.Int("threads", 256, "threads per block for -occupancy")
		smem      = flag.Int("smem", 0, "shared memory bytes per block for -occupancy")
		blocks    = flag.Int("blocks", 64, "grid size for -occupancy")
		dag       = flag.Bool("dag", false, "print each workload's operator DAG shape (inter-layer parallelism)")
		plans     = flag.Bool("plans", false, "print the analyzer's cached concurrency-plan table (profile a workload, or read -checkpoint)")
		ckpt      = flag.String("checkpoint", "", "with -plans: read the plan table from this durable checkpoint instead of profiling")
		netName   = flag.String("net", "CIFAR10", "with -plans: workload to profile")
		device    = flag.String("device", "P100", "with -plans: simulated GPU to profile on")
	)
	flag.Parse()

	if *plans {
		var err error
		if *ckpt != "" {
			err = printCheckpointPlans(*ckpt)
		} else {
			err = printLivePlans(*netName, *device)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *dag {
		if err := printDAGs(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *occupancy {
		if *threads < 1 || *blocks < 1 || *smem < 0 {
			fmt.Fprintf(os.Stderr, "-occupancy needs -threads and -blocks of at least 1 and -smem of at least 0 (got %d, %d, %d)\n",
				*threads, *blocks, *smem)
			os.Exit(1)
		}
		cfg := simgpu.LaunchConfig{
			Grid:           simgpu.D1(*blocks),
			Block:          simgpu.D1(*threads),
			SharedMemBytes: *smem,
		}
		if !printOccupancy(os.Stdout, cfg) {
			fmt.Fprintln(os.Stderr, "no device accepts this launch configuration")
			os.Exit(1)
		}
		return
	}

	fmt.Printf("host micro-kernel ISA: detected %s, active %s (runnable: %v; GLP4NN_ISA forces down)\n",
		tensor.DetectedISA(), tensor.ActiveISA(), tensor.AvailableISAs())
	if note := isaEnvIgnored(os.Getenv("GLP4NN_ISA")); note != "" {
		fmt.Println(note)
	}
	fmt.Println()

	for _, id := range []string{"table1", "table3", "table4"} {
		e, err := bench.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s ===\n", e.Title)
		if err := e.Run(bench.Config{Quick: true}, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if err := printFusion(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printOccupancy prints the occupancy of a launch configuration on each
// catalog device — or, where the device refuses the launch, its launch
// validation's reason — and reports whether any device accepts it.
func printOccupancy(w io.Writer, cfg simgpu.LaunchConfig) bool {
	fmt.Fprintf(w, "occupancy for grid=%d block=%d smem=%dB:\n", cfg.Blocks(), cfg.ThreadsPerBlock(), cfg.SharedMemBytes)
	probe := simgpu.Kernel{Name: "occupancy", Config: cfg}
	accepted := false
	for _, spec := range simgpu.DeviceCatalog {
		if err := probe.Validate(spec); err != nil {
			fmt.Fprintf(w, "  %-8s refused: %v\n", spec.Name, err)
			continue
		}
		accepted = true
		fmt.Fprintf(w, "  %-8s %2d blocks/SM resident, theoretical occupancy %.2f\n",
			spec.Name, cfg.MaxBlocksResidentPerSM(spec), cfg.TheoreticalOccupancy(spec))
	}
	return accepted
}

// isaEnvIgnored returns the line saying why a GLP4NN_ISA value had no
// effect at init — an unknown level, or one above the detected ceiling (the
// variable only forces the ladder down) — or "" when it is unset, "auto",
// or in effect.
func isaEnvIgnored(env string) string {
	if env == "" || env == "auto" {
		return ""
	}
	want, err := tensor.ParseISA(env)
	if err != nil {
		return fmt.Sprintf("GLP4NN_ISA ignored: %v", err)
	}
	if want > tensor.DetectedISA() {
		return fmt.Sprintf("GLP4NN_ISA ignored: %s is above the detected ceiling %s", want, tensor.DetectedISA())
	}
	return ""
}

// printFusion builds each registered workload at a tiny batch and reports
// its fusable GEMM-epilogue sites (what Net.EnableFusion — the CLIs' -fuse
// flag — collapses into the GEMM while changing no bits).
func printFusion() error {
	fmt.Println("fusable GEMM epilogue sites per workload (enable with -fuse / Net.EnableFusion):")
	for _, name := range models.Names {
		w, err := models.Get(name)
		if err != nil {
			return err
		}
		ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
		ctx.Compute = false
		net, err := w.Build(ctx, 2, 1)
		if err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
		sites := net.FusionPlan()
		kinds := map[string]int{}
		for _, s := range sites {
			kinds[s.Kind]++
		}
		var parts []string
		for _, k := range []string{"conv+bias+relu", "conv+bias", "conv+relu", "ip+bias"} {
			if kinds[k] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", kinds[k], k))
			}
		}
		fmt.Printf("  %-10s %3d sites (%s)\n", name, len(sites), strings.Join(parts, ", "))
	}
	return nil
}

// planRow prints one cached plan in the shared -plans table format.
func planRow(key string, streams int, serial, fallback bool, solvedFrom time.Duration) {
	kind := "solved"
	if fallback {
		kind = "fallback"
	}
	if serial {
		kind += ",serial"
	}
	fmt.Printf("  %-26s width %2d  %-15s solved-from %v\n",
		key, streams, kind, solvedFrom.Round(time.Microsecond))
}

// printCheckpointPlans dumps the per-replica plan tables stored in a durable
// checkpoint (version ≥ 1; version-1 files carry no solved-from timing).
func printCheckpointPlans(path string) error {
	info, err := parallel.PeekCheckpointFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: iteration %d, %d replicas\n", path, info.Iter, len(info.Plans))
	for i, ps := range info.Plans {
		if len(ps) == 0 {
			fmt.Printf("replica %d: no cached plans (non-GLP run or evicted replica)\n", i)
			continue
		}
		fmt.Printf("replica %d: %d plans\n", i, len(ps))
		for _, p := range ps {
			planRow(p.Key, p.Streams, p.Serial, p.Fallback, p.SolvedFrom)
		}
	}
	return nil
}

// printLivePlans runs two timing-only iterations of a workload under
// GLP4NN — enough to open and close the profiling window — then finalizes
// and dumps the analyzer's plan cache (the data behind the paper's Fig. 8).
func printLivePlans(netName, device string) error {
	spec, ok := simgpu.DeviceByName(device)
	if !ok {
		return fmt.Errorf("unknown device %q (have %v)", device, simgpu.CatalogNames())
	}
	w, err := models.Get(netName)
	if err != nil {
		return err
	}
	dev := simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	fw := core.New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	ctx := dnn.NewContext(rt, 1)
	ctx.Compute = false
	net, err := w.Build(ctx, w.DefaultBatch, 1)
	if err != nil {
		return fmt.Errorf("building %s: %w", netName, err)
	}
	solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
	for i := 0; i < 2; i++ {
		if _, err := solver.Step(); err != nil {
			return err
		}
	}
	ps := rt.FinalizePlans()
	fmt.Printf("%s on %s (batch %d): %d concurrency plans\n", netName, spec.Name, w.DefaultBatch, len(ps))
	for _, p := range ps {
		planRow(p.Key, p.Streams, p.Serial, p.Fallback, p.SolvedFrom)
	}
	return nil
}

// printDAGs builds each registered workload at a tiny batch and prints its
// blob-dependency DAG statistics — the axis of parallelism that is a
// property of the network alone, independent of any device.
func printDAGs() error {
	for _, name := range models.Names {
		w, err := models.Get(name)
		if err != nil {
			return err
		}
		ctx := dnn.NewContext(dnn.HostLauncher{}, 1)
		ctx.Compute = false
		net, err := w.Build(ctx, 2, 1)
		if err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
		st, err := net.DAGStats()
		if err != nil {
			return fmt.Errorf("dag for %s: %w", name, err)
		}
		fmt.Printf("%s: %s\n", name, st)
		fmt.Printf("  critical path: %s\n\n", strings.Join(st.CriticalPath, " → "))
	}
	return nil
}
