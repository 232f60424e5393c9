// Package milp provides a small, dependency-free mixed-integer linear
// programming solver. It is the stand-in for the GNU Linear Programming Kit
// (GLPK) that the GLP4NN paper uses to solve the kernel-concurrency model of
// Section 3.2. The problems produced by the kernel analyzer are tiny (a
// handful of variables, a handful of constraints), so the solver favours
// robustness and clarity over large-scale performance: a dense two-phase
// primal simplex with Bland's anti-cycling rule, wrapped in best-first
// branch and bound for the integer variables.
package milp

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x ≤ b
	GE                 // a·x ≥ b
	EQ                 // a·x = b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Constraint is one linear constraint a·x REL b.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
	Name   string
}

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Maximize Sense = iota
	Minimize
)

// Problem describes max/min c·x subject to constraints, variable bounds and
// integrality requirements. Bounds default to [0, +inf) when the slices are
// nil. Upper bounds may be math.Inf(1).
type Problem struct {
	Sense       Sense
	Objective   []float64
	Constraints []Constraint
	Lower       []float64 // nil => all zeros
	Upper       []float64 // nil => all +inf
	Integer     []bool    // nil => all continuous
	VarNames    []string  // optional, used in diagnostics
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case NodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// Solution is the result of Solve. X has one entry per variable; for integer
// variables the value is exactly integral (rounded from the LP value within
// tolerance).
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Nodes      int // branch-and-bound nodes explored
	Iterations int // total simplex pivots
}

// Solver limits and tolerances.
const (
	maxNodes      = 100000 // branch-and-bound node limit
	maxIterations = 20000  // simplex pivot limit per LP
	intTol        = 1e-6   // integrality tolerance
	eps           = 1e-9   // numerical tolerance
)

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.Objective)
	if n == 0 {
		return errors.New("milp: problem has no variables")
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return fmt.Errorf("milp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("milp: lower bounds length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("milp: upper bounds length %d, want %d", len(p.Upper), n)
	}
	if p.Integer != nil && len(p.Integer) != n {
		return fmt.Errorf("milp: integrality length %d, want %d", len(p.Integer), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		if lo > hi {
			return fmt.Errorf("milp: variable %d has empty bound range [%g, %g]", j, lo, hi)
		}
		if math.IsInf(lo, -1) {
			return fmt.Errorf("milp: variable %d has -inf lower bound (free variables unsupported)", j)
		}
	}
	return nil
}

func (p *Problem) boundsAt(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lower != nil {
		lo = p.Lower[j]
	}
	if p.Upper != nil {
		hi = p.Upper[j]
	}
	return lo, hi
}

// String renders the problem in a compact LP-file-like format, useful for
// debugging analyzer output.
func (p *Problem) String() string {
	var b strings.Builder
	if p.Sense == Maximize {
		b.WriteString("maximize ")
	} else {
		b.WriteString("minimize ")
	}
	for j, c := range p.Objective {
		if j > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g*%s", c, p.varName(j))
	}
	b.WriteString("\n")
	for _, c := range p.Constraints {
		b.WriteString("  s.t. ")
		for j, a := range c.Coeffs {
			if a == 0 {
				continue
			}
			fmt.Fprintf(&b, "%+g*%s ", a, p.varName(j))
		}
		fmt.Fprintf(&b, "%s %g", c.Rel, c.RHS)
		if c.Name != "" {
			fmt.Fprintf(&b, "  [%s]", c.Name)
		}
		b.WriteString("\n")
	}
	for j := range p.Objective {
		lo, hi := p.boundsAt(j)
		kind := "cont"
		if p.Integer != nil && p.Integer[j] {
			kind = "int"
		}
		fmt.Fprintf(&b, "  %s in [%g, %g] %s\n", p.varName(j), lo, hi, kind)
	}
	return b.String()
}

func (p *Problem) varName(j int) string {
	if p.VarNames != nil && j < len(p.VarNames) && p.VarNames[j] != "" {
		return p.VarNames[j]
	}
	return fmt.Sprintf("x%d", j)
}

// Solve runs branch and bound over the LP relaxation.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bb := &bnb{prob: p}
	return bb.run()
}

// bnb is the branch-and-bound driver. Nodes carry tightened variable bounds;
// the search is best-first on the LP relaxation bound so the incumbent prunes
// aggressively.
type bnb struct {
	prob *Problem

	nodes int
	iters int

	incumbent    []float64
	incumbentObj float64
	haveInc      bool
}

type node struct {
	lower, upper []float64
	bound        float64 // LP relaxation objective (in maximize orientation)
}

func (b *bnb) run() (*Solution, error) {
	n := len(b.prob.Objective)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = b.prob.boundsAt(j)
		// Integral variables can have their bounds rounded inward up front.
		if b.isInt(j) {
			lo[j] = math.Ceil(lo[j] - intTol)
			if !math.IsInf(hi[j], 1) {
				hi[j] = math.Floor(hi[j] + intTol)
			}
			if lo[j] > hi[j] {
				return &Solution{Status: Infeasible}, nil
			}
		}
	}

	// maximize orientation: flip sign for minimize.
	obj := make([]float64, n)
	sign := 1.0
	if b.prob.Sense == Minimize {
		sign = -1.0
	}
	for j := range obj {
		obj[j] = sign * b.prob.Objective[j]
	}

	root := node{lower: lo, upper: hi, bound: math.Inf(1)}
	// Best-first: simple slice-based priority queue; node counts are tiny.
	open := []node{root}

	status := Optimal
	for len(open) > 0 {
		if b.nodes >= maxNodes {
			status = NodeLimit
			break
		}
		// pop node with best bound
		best := 0
		for i := 1; i < len(open); i++ {
			if open[i].bound > open[best].bound {
				best = i
			}
		}
		cur := open[best]
		open[best] = open[len(open)-1]
		open = open[:len(open)-1]

		if b.haveInc && cur.bound <= b.incumbentObj+eps {
			continue // pruned by bound
		}
		b.nodes++

		x, val, st, it := solveLP(obj, b.prob.Constraints, cur.lower, cur.upper)
		b.iters += it
		switch st {
		case Infeasible:
			continue
		case Unbounded:
			// An unbounded relaxation of a node with all-finite integer bounds
			// means the continuous part is unbounded: propagate.
			return &Solution{Status: Unbounded, Nodes: b.nodes, Iterations: b.iters}, nil
		case IterLimit:
			status = IterLimit
			continue
		}
		if b.haveInc && val <= b.incumbentObj+eps {
			continue
		}

		// Find most fractional integer variable.
		frac := -1
		fracDist := 0.0
		for j := 0; j < n; j++ {
			if !b.isInt(j) {
				continue
			}
			f := x[j] - math.Floor(x[j])
			d := math.Min(f, 1-f)
			if d > intTol && d > fracDist {
				fracDist = d
				frac = j
			}
		}
		if frac < 0 {
			// Integral solution: new incumbent.
			if !b.haveInc || val > b.incumbentObj {
				b.haveInc = true
				b.incumbentObj = val
				b.incumbent = append([]float64(nil), x...)
				for j := 0; j < n; j++ {
					if b.isInt(j) {
						b.incumbent[j] = math.Round(b.incumbent[j])
					}
				}
			}
			continue
		}

		// Branch.
		floorV := math.Floor(x[frac])
		left := node{lower: cloneBounds(cur.lower), upper: cloneBounds(cur.upper), bound: val}
		left.upper[frac] = floorV
		right := node{lower: cloneBounds(cur.lower), upper: cloneBounds(cur.upper), bound: val}
		right.lower[frac] = floorV + 1
		if left.lower[frac] <= left.upper[frac] {
			open = append(open, left)
		}
		if math.IsInf(right.upper[frac], 1) || right.lower[frac] <= right.upper[frac] {
			open = append(open, right)
		}
	}

	if !b.haveInc {
		if status == Optimal {
			status = Infeasible
		}
		return &Solution{Status: status, Nodes: b.nodes, Iterations: b.iters}, nil
	}
	objOut := b.incumbentObj
	if b.prob.Sense == Minimize {
		objOut = -objOut
	}
	return &Solution{
		Status:     status,
		X:          b.incumbent,
		Objective:  objOut,
		Nodes:      b.nodes,
		Iterations: b.iters,
	}, nil
}

func (b *bnb) isInt(j int) bool {
	return b.prob.Integer != nil && b.prob.Integer[j]
}

func cloneBounds(v []float64) []float64 {
	return append([]float64(nil), v...)
}
