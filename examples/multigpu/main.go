// Multi-GPU: the paper's Fig. 5 topology — one shared resource tracker and
// stream manager per machine, a private kernel analyzer and runtime
// scheduler per GPU. This example trains a different workload on each of
// the machine's three (simulated) GPUs through one Framework and shows the
// per-device concurrency plans and overhead ledgers.
//
// Run with:
//
//	go run ./examples/multigpu
package main

import (
	"fmt"
	"log"
	"time"

	glp4nn "repro"
	"repro/internal/simgpu"
)

func main() {
	machine := simgpu.NewMachine(glp4nn.TeslaK40C, glp4nn.TeslaP100, glp4nn.TitanXP)
	fw := glp4nn.New()
	defer fw.Close()

	jobs := []struct {
		device   int
		workload string
		batch    int
	}{
		{0, "Siamese", 16},
		{1, "CIFAR10", 32},
		{2, "GoogLeNet", 8},
	}

	for _, job := range jobs {
		dev := machine.Device(job.device)
		rt := fw.Runtime(dev) // private analyzer+scheduler per device
		ctx := glp4nn.NewContext(rt, 11)
		ctx.Compute = false // timing-only: we are after the schedules here

		net, err := glp4nn.BuildModel(job.workload, ctx, job.batch, 11)
		if err != nil {
			log.Fatal(err)
		}
		solver := glp4nn.NewSolver(net, ctx, glp4nn.CIFAR10QuickSolver())

		var steady time.Duration
		for i := 0; i < 4; i++ { // profile, analyze, 2 steady iterations
			if err := dev.ResetClocks(); err != nil {
				log.Fatal(err)
			}
			if _, err := solver.Step(); err != nil {
				log.Fatal(err)
			}
			steady, err = dev.SyncTime()
			if err != nil {
				log.Fatal(err)
			}
		}

		fmt.Printf("GPU %d = %s running %s (N=%d): steady iteration %v\n",
			job.device, dev.Name(), job.workload, job.batch, steady.Round(time.Microsecond))
		for _, p := range rt.Plans() {
			if p.Streams > 1 {
				fmt.Printf("   %-24s → %d streams\n", p.Key, p.Streams)
			}
		}
		fmt.Printf("   overhead: %s\n\n", rt.Ledger().Snapshot())
	}

	if _, err := machine.SynchronizeAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("All three devices shared one resource tracker and stream manager (Fig. 5 topology);")
	fmt.Println("each kept its own analyzer cache, so the same layer gets device-specific stream counts.")
}
