// Quickstart: train the CIFAR10 network for a few iterations on a simulated
// Tesla P100, first with naive serial dispatch (original Caffe), then under
// GLP4NN, and compare the simulated per-iteration time.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	glp4nn "repro"
)

func main() {
	const (
		batch = 32
		iters = 8
		seed  = 42
	)

	fmt.Println("GLP4NN reproduction — quickstart")
	fmt.Println(glp4nn.Describe(glp4nn.NewDevice(glp4nn.TeslaP100)))
	fmt.Println()

	// Arm 1: naive Caffe (single stream).
	naive := trainArm("naive Caffe ", batch, iters, seed, nil)

	// Arm 2: GLP4NN (profile → analyze → concurrent streams).
	fw := glp4nn.New()
	defer fw.Close()
	glp := trainArm("GLP4NN-Caffe", batch, iters, seed, fw)

	fmt.Printf("\nmean simulated iteration: naive %v vs GLP4NN %v → speedup %.2fx\n",
		naive.Round(time.Microsecond), glp.Round(time.Microsecond), float64(naive)/float64(glp))
	fmt.Println("(the first two GLP4NN iterations profile and analyze; they are excluded above)")
}

// trainArm trains CIFAR10 on its own simulated P100 and returns the mean
// simulated iteration time of the steady-state iterations.
func trainArm(label string, batch, iters int, seed int64, fw *glp4nn.Framework) time.Duration {
	dev := glp4nn.NewDevice(glp4nn.TeslaP100)
	var launcher glp4nn.Launcher = glp4nn.Serial(dev)
	warmup := 1
	if fw != nil {
		launcher = fw.Runtime(dev)
		warmup = 2 // profiling + analysis iterations
	}
	ctx := glp4nn.NewContext(launcher, seed)

	net, err := glp4nn.BuildModel("CIFAR10", ctx, batch, seed)
	if err != nil {
		log.Fatal(err)
	}
	feed, err := glp4nn.NewFeeder("CIFAR10", batch, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	solver := glp4nn.NewSolver(net, ctx, glp4nn.CIFAR10QuickSolver())

	var total time.Duration
	measured := 0
	for i := 0; i < iters; i++ {
		if err := feed(net); err != nil {
			log.Fatal(err)
		}
		if err := dev.ResetClocks(); err != nil {
			log.Fatal(err)
		}
		if err := net.UploadInputs(ctx); err != nil { // PCIe copy of the batch
			log.Fatal(err)
		}
		loss, err := solver.Step()
		if err != nil {
			log.Fatal(err)
		}
		simTime, err := dev.SyncTime()
		if err != nil {
			log.Fatal(err)
		}
		if i >= warmup {
			total += simTime
			measured++
		}
		fmt.Printf("%s iter %2d: loss %.4f, simulated time %v\n",
			label, i+1, loss, simTime.Round(time.Microsecond))
	}
	if fw != nil {
		fmt.Printf("%s overhead: %s\n", label, fw.Runtime(dev).Ledger().Snapshot())
	}
	return total / time.Duration(measured)
}
