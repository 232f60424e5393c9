package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// convergenceArm trains the CIFAR10 net with real math under the given
// launcher and returns loss/accuracy series sampled every `every` steps.
type convergencePoint struct {
	iter int
	loss float64
	acc  float64
}

func runConvergenceArm(label string, l dnn.Launcher, dev *simgpu.Device, cfg Config, shuffleSeed int64, batch, iters, every int, testData, testLabels []float32) ([]convergencePoint, error) {
	ctx := dnn.NewContext(l, cfg.Seed)
	net, err := models.BuildCIFAR10(ctx, batch, cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec, _ := data.SpecByName("CIFAR-10")
	ds := data.Synthetic(spec, cfg.Seed) // same dataset for both arms
	it := data.NewIterator(ds, data.TrainSplit, batch, shuffleSeed)
	buf := make([]float32, batch*ds.SampleSize())
	labels := make([]float32, batch)

	solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
	var out []convergencePoint
	evaluate := func(iter int, loss float64) error {
		// Test accuracy on the fixed held-out batch: forward in test phase
		// and score argmax(scores) against labels.
		if err := net.SetInputData("data", testData); err != nil {
			return err
		}
		if err := net.SetInputData("label", testLabels); err != nil {
			return err
		}
		ctx.Phase = dnn.Test
		if _, err := net.Forward(ctx); err != nil {
			return err
		}
		ctx.Phase = dnn.Train
		scores := net.Blob("scores")
		correct := 0
		for i := 0; i < batch; i++ {
			row := scores.SampleData(i)
			arg := 0
			for j, v := range row {
				if v > row[arg] {
					arg = j
				}
			}
			if arg == int(testLabels[i]) {
				correct++
			}
		}
		out = append(out, convergencePoint{iter: iter, loss: loss, acc: float64(correct) / float64(batch)})
		return nil
	}

	loss := 0.0
	for i := 0; i < iters; i++ {
		it.Next(buf, labels)
		if err := net.SetInputData("data", buf); err != nil {
			return nil, err
		}
		if err := net.SetInputData("label", labels); err != nil {
			return nil, err
		}
		loss, err = solver.Step()
		if err != nil {
			return nil, err
		}
		// Reading the loss forces a device synchronization in real Caffe;
		// it also keeps the lazy event engine's queues short.
		if _, err := dev.Synchronize(); err != nil {
			return nil, err
		}
		if (i+1)%every == 0 || i == 0 {
			if err := evaluate(i+1, loss); err != nil {
				return nil, err
			}
		}
	}
	_ = label
	return out, nil
}

func runFig11(cfg Config, w io.Writer) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	iters := cfg.ConvergenceIters
	batch := 32
	every := iters / 10
	if every < 1 {
		every = 1
	}
	if cfg.Quick {
		batch = 8
	}

	// Fixed held-out test batch shared by both arms.
	spec, _ := data.SpecByName("CIFAR-10")
	ds := data.Synthetic(spec, cfg.Seed)
	testData := make([]float32, batch*ds.SampleSize())
	testLabels := make([]float32, batch)
	for i := 0; i < batch; i++ {
		label := ds.Sample(data.TestSplit, i, testData[i*ds.SampleSize():(i+1)*ds.SampleSize()], 32, 32)
		testLabels[i] = float32(label)
	}

	// Arm 1: naive Caffe on a simulated P100. Arm 2: GLP4NN on its own
	// P100. Different shuffle seeds reproduce the paper's only source of
	// divergence.
	devA := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1))
	caffe, err := runConvergenceArm("Caffe", dnn.SerialLauncher{Dev: devA}, devA, cfg, cfg.Seed+100, batch, iters, every, testData, testLabels)
	if err != nil {
		return err
	}
	devB := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1))
	fw := core.New()
	defer fw.Close()
	glp, err := runConvergenceArm("GLP4NN", fw.Runtime(devB), devB, cfg, cfg.Seed+200, batch, iters, every, testData, testLabels)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "CIFAR10 (synthetic data, N=%d) on P100: convergence, %d iterations\n", batch, iters)
	t := newTable("Iteration", "Caffe loss", "GLP4NN loss", "Caffe acc", "GLP4NN acc")
	for i := range caffe {
		g := glp[min(i, len(glp)-1)]
		t.add(fmt.Sprintf("%d", caffe[i].iter),
			fmt.Sprintf("%.4f", caffe[i].loss),
			fmt.Sprintf("%.4f", g.loss),
			fmt.Sprintf("%.3f", caffe[i].acc),
			fmt.Sprintf("%.3f", g.acc))
	}
	t.write(w)

	lastC, lastG := caffe[len(caffe)-1], glp[len(glp)-1]
	fmt.Fprintf(w, "final: Caffe loss %.4f acc %.3f | GLP4NN loss %.4f acc %.3f (divergence from shuffle order only)\n",
		lastC.loss, lastC.acc, lastG.loss, lastG.acc)
	return nil
}
