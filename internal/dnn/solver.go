package dnn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// SolverConfig mirrors Caffe's SGD solver prototxt fields. Policy selects
// the learning-rate schedule:
//
//	"fixed": lr = base
//	"step":  lr = base · gamma^⌊iter/stepsize⌋
//	"inv":   lr = base · (1 + gamma·iter)^(−power)
//	"exp":   lr = base · gamma^iter
type SolverConfig struct {
	BaseLR      float32
	Momentum    float32
	WeightDecay float32
	Policy      string
	Gamma       float64
	Power       float64
	StepSize    int
}

// CIFAR10QuickSolver returns the schedule of Caffe's cifar10_quick example.
func CIFAR10QuickSolver() SolverConfig {
	return SolverConfig{BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.004, Policy: "fixed"}
}

// Solver runs Caffe's momentum SGD:
//
//	V ← momentum·V + lr·lr_mult·(∇W + wd·decay_mult·W);  W ← W − V.
//
// The update for each parameter blob is one sgd_update kernel on the
// default stream, as Caffe's solver does.
type Solver struct {
	cfg     SolverConfig
	net     *Net
	ctx     *Context
	iter    int
	history map[*Blob]*tensor.Tensor

	// updates are the prebuilt sgd_update launch sites, one per parameter
	// in Params() order, rebuilt when that list changes (ShareParams
	// recompiles it); lr is the step's rate their closures read.
	updates []paramUpdate
	lr      float32
}

// paramUpdate is one parameter's update site and the momentum history its
// closure reads, set before each launch.
type paramUpdate struct {
	p    *Blob
	hist *tensor.Tensor
	site desc
}

// NewSolver builds a solver over a net and context.
func NewSolver(net *Net, ctx *Context, cfg SolverConfig) *Solver {
	return &Solver{cfg: cfg, net: net, ctx: ctx, history: map[*Blob]*tensor.Tensor{}}
}

// Iter returns the number of completed steps.
func (s *Solver) Iter() int { return s.iter }

// SetIter overrides the step counter; external training loops that call
// ApplyUpdate directly (e.g. the data-parallel trainer) use it to keep the
// learning-rate schedule advancing.
func (s *Solver) SetIter(i int) { s.iter = i }

// Net returns the solved net.
func (s *Solver) Net() *Net { return s.net }

// Rate returns the current learning rate under the configured policy.
func (s *Solver) Rate() float32 {
	base := float64(s.cfg.BaseLR)
	switch s.cfg.Policy {
	case "", "fixed":
		return float32(base)
	case "step":
		if s.cfg.StepSize <= 0 {
			return float32(base)
		}
		return float32(base * math.Pow(s.cfg.Gamma, float64(s.iter/s.cfg.StepSize)))
	case "inv":
		return float32(base * math.Pow(1+s.cfg.Gamma*float64(s.iter), -s.cfg.Power))
	case "exp":
		return float32(base * math.Pow(s.cfg.Gamma, float64(s.iter)))
	default:
		return float32(base)
	}
}

// Step performs one training iteration: clear, forward, backward, update.
// It returns the iteration's loss.
func (s *Solver) Step() (float64, error) {
	loss, err := s.net.ForwardBackward(s.ctx)
	if err != nil {
		return 0, err
	}
	if err := s.ApplyUpdate(); err != nil {
		return 0, err
	}
	s.iter++
	return loss, nil
}

// HistorySnapshot deep-copies the momentum history, keyed by parameter
// blob. Together with the parameter data, the step counter, and the context
// RNG state it forms a complete in-memory training checkpoint.
func (s *Solver) HistorySnapshot() map[*Blob][]float32 {
	out := make(map[*Blob][]float32, len(s.history))
	for p, h := range s.history {
		out[p] = append([]float32(nil), h.Data()...)
	}
	return out
}

// RestoreHistory rewinds the momentum history to a snapshot taken with
// HistorySnapshot. Entries created since the snapshot are discarded, so a
// rolled-back step leaves no trace.
func (s *Solver) RestoreHistory(snap map[*Blob][]float32) {
	for p := range s.history {
		if _, ok := snap[p]; !ok {
			delete(s.history, p)
		}
	}
	for p, src := range snap {
		h := s.history[p]
		if h == nil {
			h = tensor.New(p.Shape()...)
			s.history[p] = h
		}
		copy(h.Data(), src)
	}
}

// updateKey is the launcher key of the solver's update phase.
const updateKey = "solver/update"

// ApplyUpdate launches one sgd_update kernel per parameter blob.
func (s *Solver) ApplyUpdate() error {
	s.ctx.Begin(updateKey)
	s.lr = s.Rate()
	s.bindUpdates(s.net.Params())
	for i := range s.updates {
		u := &s.updates[i]
		if u.hist = s.history[u.p]; u.hist == nil {
			u.hist = tensor.New(u.p.Shape()...)
			s.history[u.p] = u.hist
		}
		if err := s.ctx.launch(&u.site, -1); err != nil {
			return fmt.Errorf("solver: update %s: %w", u.p.Name, err)
		}
	}
	return s.ctx.Barrier()
}

// bindUpdates (re)builds the update sites when the parameter list differs
// from the one they were built for.
func (s *Solver) bindUpdates(params []*Blob) {
	if len(s.updates) == len(params) {
		same := true
		for i, u := range s.updates {
			same = same && u.p == params[i]
		}
		if same {
			return
		}
	}
	s.updates = make([]paramUpdate, len(params))
	for i, p := range params {
		s.updates[i] = paramUpdate{p: p, site: desc{kernels.SGDUpdate(updateKey, p.Name, p.Count()), func() { s.updateHost(i) }}}
	}
}

// updateHost is parameter i's momentum SGD step.
func (s *Solver) updateHost(i int) {
	u := &s.updates[i]
	data, diff, h := u.p.Data.Data(), u.p.Diff.Data(), u.hist.Data()
	plr := s.lr * u.p.LrMult
	pwd := s.cfg.WeightDecay * u.p.DecayMult
	mom := s.cfg.Momentum
	for i := range data {
		h[i] = mom*h[i] + plr*(diff[i]+pwd*data[i])
		data[i] -= h[i]
	}
}
