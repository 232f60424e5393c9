// Command glp4nn-bench regenerates the paper's tables and figures on the
// simulated devices. Run with -list to see every experiment, -exp <id> to
// run one, or -exp all for the full evaluation.
//
// Examples:
//
//	glp4nn-bench -list
//	glp4nn-bench -exp fig7
//	glp4nn-bench -exp fig2 -quick
//	glp4nn-bench -exp fig11 -convergence-iters 500
//	glp4nn-bench -exp fig7 -devices P100 -networks CIFAR10,Siamese
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (or 'all')")
		list      = flag.Bool("list", false, "list available experiments")
		devices   = flag.String("devices", "", "comma-separated device names (default: K40C,P100,TitanXP)")
		networks  = flag.String("networks", "", "comma-separated workloads (default: all four)")
		iters     = flag.Int("iters", 0, "measured timing iterations per arm")
		seed      = flag.Int64("seed", 1, "seed for synthetic data and initialization")
		quick     = flag.Bool("quick", false, "shrink batches and sweeps for a fast smoke run")
		convIters = flag.Int("convergence-iters", 0, "training length for fig11")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
			fmt.Printf("  %-16s paper: %s\n", "", e.Paper)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with -exp <id> (or -exp all)")
		}
		return
	}

	cfg := bench.Config{
		Iterations:       *iters,
		Seed:             *seed,
		Quick:            *quick,
		ConvergenceIters: *convIters,
	}
	if *devices != "" {
		cfg.Devices = splitList(*devices)
	}
	if *networks != "" {
		cfg.Networks = splitList(*networks)
	}

	var toRun []*bench.Experiment
	if *exp == "all" {
		toRun = bench.All()
	} else {
		for _, id := range splitList(*exp) {
			e, err := bench.Get(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			toRun = append(toRun, e)
		}
	}

	for _, e := range toRun {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n\n", e.Paper)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
