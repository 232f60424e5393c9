package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// streamSweep measures a single-conv-layer forward under fixed pools of
// growing size and returns time per pool size.
func streamSweep(row models.LayerRow, batch int, spec simgpu.DeviceSpec, sizes []int, seed int64) (map[int]time.Duration, error) {
	net, err := buildConvLayerNet(row, batch, seed)
	if err != nil {
		return nil, err
	}
	out := map[int]time.Duration{}
	for _, n := range sizes {
		dev := simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
		var l dnn.Launcher
		if n <= 1 {
			l = dnn.SerialLauncher{Dev: dev}
		} else {
			l = core.NewFixedLauncher(dev, n)
		}
		// Warm once (buffer growth), measure once: the simulator is
		// deterministic, so repetitions are redundant.
		if _, err := forwardElapsed(net, dev, l); err != nil {
			return nil, err
		}
		d, err := forwardElapsed(net, dev, l)
		if err != nil {
			return nil, err
		}
		out[n] = d
	}
	return out, nil
}

func sweepSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 2, 8}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

func runFig2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	sizes := sweepSizes(cfg)
	header := []string{"Layer"}
	for _, s := range sizes {
		header = append(header, fmt.Sprintf("%d streams", s))
	}
	t := newTable(header...)
	for _, row := range models.Rows("CaffeNet") {
		times, err := streamSweep(row, cfg.rowBatch(row), simgpu.TeslaP100, sizes, cfg.Seed)
		if err != nil {
			return err
		}
		base := times[sizes[0]]
		cells := []string{row.Layer}
		for _, s := range sizes {
			cells = append(cells, fmt.Sprintf("%.2fx (%sms)", float64(base)/float64(times[s]), ms(times[s])))
		}
		t.add(cells...)
	}
	fmt.Fprintln(w, "CaffeNet convolution layers on P100: speedup over 1 stream (per forward pass)")
	t.write(w)
	return nil
}

func runFig3(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// The paper's Fig. 3 profiles a conv layer on MNIST shapes with a few
	// samples so the timeline stays readable. We use the Siamese conv2 row
	// of Table 5 on the K40C: its per-image kernels are long relative to
	// T_launch, so the overlap is visible. (conv1's kernels are launch-
	// bound under our calibration — consistent with its own Fig. 9
	// regression — and would serialize in any stream configuration.)
	row := models.Rows("Siamese")[1]
	batch := 8
	net, err := buildConvLayerNet(row, batch, cfg.Seed)
	if err != nil {
		return err
	}
	for _, streams := range []int{1, 4} {
		dev := simgpu.NewDevice(simgpu.TeslaK40C)
		var l dnn.Launcher
		if streams <= 1 {
			l = dnn.SerialLauncher{Dev: dev}
		} else {
			l = core.NewFixedLauncher(dev, streams)
		}
		if _, err := forwardElapsed(net, dev, l); err != nil {
			return err
		}
		recs, err := dev.Trace()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (MNIST-derived shapes, %d samples) on K40C with %d stream(s):\n", row.Layer, batch, streams)
		fmt.Fprint(w, simgpu.Timeline(recs, 96))
		fmt.Fprintln(w)
	}
	return nil
}

func runFig4(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	sizes := sweepSizes(cfg)
	specs, err := deviceSpecs(cfg)
	if err != nil {
		return err
	}
	header := []string{"Layer"}
	for _, s := range specs {
		header = append(header, s.Name)
	}
	t := newTable(header...)
	for _, row := range models.Rows("CaffeNet") {
		cells := []string{row.Layer}
		for _, spec := range specs {
			times, err := streamSweep(row, cfg.rowBatch(row), spec, sizes, cfg.Seed)
			if err != nil {
				return err
			}
			best, bestT := sizes[0], times[sizes[0]]
			for _, s := range sizes {
				if times[s] < bestT {
					best, bestT = s, times[s]
				}
			}
			cells = append(cells, fmt.Sprintf("%d (%sms)", best, ms(bestT)))
		}
		t.add(cells...)
	}
	fmt.Fprintln(w, "Best observed number of concurrent streams per CaffeNet conv layer (forward)")
	t.write(w)
	return nil
}
