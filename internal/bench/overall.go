package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// armResult captures one launcher arm's measurements on one device.
type armResult struct {
	iter   time.Duration // mean full training iteration
	tsStep time.Duration // T_s one of those iterations charged (GLP4NN arm)
	fwd    time.Duration // one forward pass
	trace  []simgpu.KernelRecord
	ledger core.Snapshot
	plans  []*core.Plan
}

// runArms measures the naive (serial) and GLP4NN arms for one workload on
// one device spec, reusing a single net instance so both arms see identical
// kernels.
func runArms(net *dnn.Net, spec simgpu.DeviceSpec, cfg Config) (naive, glp armResult, err error) {
	measure := func(l dnn.Launcher, dev *simgpu.Device, warmups int, ledger *core.Ledger) (armResult, error) {
		ctx := dnn.NewContext(l, cfg.Seed)
		ctx.Compute = false
		s := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
		var r armResult
		for i := 0; i < warmups; i++ {
			if _, err := iterationElapsed(s, dev); err != nil {
				return r, err
			}
		}
		var total, ts0 time.Duration
		if ledger != nil {
			ts0 = ledger.Snapshot().Ts
		}
		for i := 0; i < cfg.Iterations; i++ {
			d, err := iterationElapsed(s, dev)
			if err != nil {
				return r, err
			}
			total += d
		}
		r.iter = total / time.Duration(cfg.Iterations)
		if ledger != nil {
			r.tsStep = (ledger.Snapshot().Ts - ts0) / time.Duration(cfg.Iterations)
		}
		// One traced forward for the per-layer view.
		fwd, err := forwardElapsed(net, dev, l)
		if err != nil {
			return r, err
		}
		r.fwd = fwd
		if r.trace, err = dev.Trace(); err != nil {
			return r, err
		}
		return r, nil
	}

	devN := simgpu.NewDevice(spec)
	naive, err = measure(dnn.SerialLauncher{Dev: devN}, devN, 1, nil)
	if err != nil {
		return
	}

	devG := simgpu.NewDevice(spec)
	fw := core.New()
	defer fw.Close()
	rt := fw.Runtime(devG)
	glp, err = measure(rt, devG, 2, rt.Ledger()) // profiling + analysis warmups
	if err != nil {
		return
	}
	glp.ledger = rt.Ledger().Snapshot()
	glp.plans = rt.Plans()
	return
}

// buildWorkloadNet builds one workload's net, timing-only.
func buildWorkloadNet(name string, cfg Config) (*dnn.Net, *models.Workload, error) {
	w, err := models.Get(name)
	if err != nil {
		return nil, nil, err
	}
	ctx := dnn.NewContext(dnn.HostLauncher{}, cfg.Seed)
	ctx.Compute = false
	net, err := w.Build(ctx, cfg.batchFor(w), cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	return net, w, nil
}

func runFig7(cfg Config, w io.Writer) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	specs, err := deviceSpecs(cfg)
	if err != nil {
		return err
	}
	header := []string{"Network"}
	for _, s := range specs {
		header = append(header, s.Name)
	}
	t := newTable(header...)
	for _, name := range cfg.Networks {
		net, wl, err := buildWorkloadNet(name, cfg)
		if err != nil {
			return err
		}
		cells := []string{fmt.Sprintf("%s (N=%d)", name, cfg.batchFor(wl))}
		for _, spec := range specs {
			naive, glp, err := runArms(net, spec, cfg)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.2fx (%s→%s ms)",
				float64(naive.iter)/float64(glp.iter), ms(naive.iter), ms(glp.iter)))
		}
		t.add(cells...)
	}
	fmt.Fprintln(w, "Speedup of GLP4NN over naive Caffe per training iteration (fwd+bwd+update)")
	t.write(w)
	return nil
}

func runFig8(cfg Config, w io.Writer) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	specs, err := deviceSpecs(cfg)
	if err != nil {
		return err
	}
	header := []string{"Network", "Layer"}
	for _, s := range specs {
		header = append(header, s.Name)
	}
	t := newTable(header...)
	for _, name := range cfg.Networks {
		net, _, err := buildWorkloadNet(name, cfg)
		if err != nil {
			return err
		}
		// plan streams per device per conv layer
		perDev := map[string]map[string]int{}
		for _, spec := range specs {
			_, glp, err := runArms(net, spec, cfg)
			if err != nil {
				return err
			}
			m := map[string]int{}
			for _, p := range glp.plans {
				if strings.HasSuffix(p.Key, "/fwd") {
					m[strings.TrimSuffix(p.Key, "/fwd")] = p.Streams
				}
			}
			perDev[spec.Name] = m
		}
		for _, row := range models.Rows(name) {
			cells := []string{name, row.Layer}
			for _, spec := range specs {
				cells = append(cells, fmt.Sprintf("%d", perDev[spec.Name][row.Layer]))
			}
			t.add(cells...)
		}
	}
	fmt.Fprintln(w, "Streams chosen by the analytical model (C_out) per convolution layer, forward pass")
	t.write(w)
	return nil
}

func runFig9(cfg Config, w io.Writer) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	cases := []struct {
		network string
		device  string
	}{
		{"CIFAR10", "TitanXP"},
		{"Siamese", "P100"},
	}
	for _, c := range cases {
		spec, ok := simgpu.DeviceByName(c.device)
		if !ok {
			return fmt.Errorf("bench: unknown device %q", c.device)
		}
		net, wl, err := buildWorkloadNet(c.network, cfg)
		if err != nil {
			return err
		}
		naive, glp, err := runArms(net, spec, cfg)
		if err != nil {
			return err
		}
		_, naiveSpans := perLayerSpans(naive.trace)
		_, glpSpans := perLayerSpans(glp.trace)

		fmt.Fprintf(w, "%s (N=%d) on %s, per-layer forward elapsed time:\n", c.network, cfg.batchFor(wl), c.device)
		t := newTable("Layer", "Caffe (ms)", "GLP4NN (ms)", "Speedup")
		names := sortedKeys(naiveSpans)
		sort.Strings(names)
		for _, layer := range names {
			nv := naiveSpans[layer]
			gv, ok := glpSpans[layer]
			if !ok || nv == 0 || gv == 0 {
				continue
			}
			t.add(layer, ms(nv), ms(gv), fmt.Sprintf("%.2fx", float64(nv)/float64(gv)))
		}
		t.write(w)
		fmt.Fprintf(w, "whole forward: Caffe %sms vs GLP4NN %sms\n\n", ms(naive.fwd), ms(glp.fwd))
	}
	return nil
}
