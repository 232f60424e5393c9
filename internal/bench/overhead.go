package bench

import (
	"fmt"
	"io"
)

func runFig10(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	specs, err := deviceSpecs(cfg)
	if err != nil {
		return err
	}
	t := newTable("Network", "GPU", "mem_tt (KB)", "mem_K (KB)", "mem_cupti (MB)", "mem_total (MB)", "kernels recorded")
	for _, name := range cfg.Networks {
		net, _, err := buildWorkloadNet(name, cfg)
		if err != nil {
			return err
		}
		for _, spec := range specs {
			_, glp, err := runArms(net, spec, cfg)
			if err != nil {
				return err
			}
			s := glp.ledger
			t.add(name, spec.Name,
				fmt.Sprintf("%.2f", float64(s.MemTT)/1024),
				fmt.Sprintf("%.2f", float64(s.MemK)/1024),
				fmt.Sprintf("%.2f", float64(s.MemCUPTI)/(1<<20)),
				fmt.Sprintf("%.2f", float64(s.MemTotal())/(1<<20)),
				fmt.Sprintf("%d", s.ProfiledKernels))
		}
	}
	fmt.Fprintln(w, "Host memory consumed by GLP4NN's resource tracker (Eq. 10)")
	t.write(w)
	return nil
}

// table6ReferenceIters is the run length the overhead is quoted for:
// Caffe's stock recipes train these nets for thousands of iterations
// (cifar10_quick alone uses 5000), so 1000 is a conservative lower bound
// for the "total training time" denominator of the paper's ratio column.
// It is also the run length the repo's benchmark amortises over, so this
// table and core.overhead_pct are one formula: the one-time T_p + T_a plus
// the per-iteration T_s of every iteration, over the run's training time.
const table6ReferenceIters = 1000

func runTable6(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	specs, err := deviceSpecs(cfg)
	if err != nil {
		return err
	}
	t := newTable("Model", "GPU", "T_p (ms)", "T_a (ms)", "T_s/iter (ms)", "T_total (ms)", "iter (ms)", "ratio")
	for _, name := range cfg.Networks {
		net, _, err := buildWorkloadNet(name, cfg)
		if err != nil {
			return err
		}
		for _, spec := range specs {
			_, glp, err := runArms(net, spec, cfg)
			if err != nil {
				return err
			}
			s := glp.ledger
			total := s.Tp + s.Ta + glp.tsStep*table6ReferenceIters
			ratio := float64(total) / float64(glp.iter*table6ReferenceIters)
			t.add(name, spec.Name, ms(s.Tp), ms(s.Ta), ms(glp.tsStep), ms(total), ms(glp.iter),
				fmt.Sprintf("%.4f%%", ratio*100))
		}
	}
	fmt.Fprintf(w, "Overhead of GLP4NN (Eq. 12) over %d training iterations: T_total = T_p + T_a + %d x T_s/iter, ratio = T_total / (%d x iter)\n",
		table6ReferenceIters, table6ReferenceIters, table6ReferenceIters)
	t.write(w)
	return nil
}
