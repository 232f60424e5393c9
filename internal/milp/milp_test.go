package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestLPSimpleMax(t *testing.T) {
	// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 → x=4, y=0, obj=12.
	p := &Problem{
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 4},
			{Coeffs: []float64{1, 3}, Rel: LE, RHS: 6},
		},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-12) > 1e-6 {
		t.Fatalf("objective = %v, want 12", s.Objective)
	}
	if math.Abs(s.X[0]-4) > 1e-6 || math.Abs(s.X[1]) > 1e-6 {
		t.Fatalf("x = %v, want [4 0]", s.X)
	}
}

func TestLPWithGEAndEQ(t *testing.T) {
	// minimize 2x + 3y s.t. x + y = 10, x >= 3, y >= 2 → x=8, y=2, obj=22.
	p := &Problem{
		Sense:     Minimize,
		Objective: []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 10},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 3},
			{Coeffs: []float64{0, 1}, Rel: GE, RHS: 2},
		},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-22) > 1e-6 {
		t.Fatalf("objective = %v, want 22", s.Objective)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, RHS: 5},
			{Coeffs: []float64{1}, Rel: LE, RHS: 3},
		},
	}
	s := mustSolve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, -1}, Rel: LE, RHS: 1},
		},
	}
	s := mustSolve(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestLPBounds(t *testing.T) {
	// maximize x + y with 1 <= x <= 3, 2 <= y <= 2.5 and x + y <= 5.
	p := &Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 5},
		},
		Lower: []float64{1, 2},
		Upper: []float64{3, 2.5},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
	if s.X[0] < 1-1e-9 || s.X[0] > 3+1e-9 || s.X[1] < 2-1e-9 || s.X[1] > 2.5+1e-9 {
		t.Fatalf("x = %v violates bounds", s.X)
	}
}

func TestMIPKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50.
	// Optimal = items 2+3 → 220.
	p := &Problem{
		Objective: []float64{60, 100, 120},
		Constraints: []Constraint{
			{Coeffs: []float64{10, 20, 30}, Rel: LE, RHS: 50},
		},
		Upper:   []float64{1, 1, 1},
		Integer: []bool{true, true, true},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-220) > 1e-6 {
		t.Fatalf("objective = %v, want 220", s.Objective)
	}
	want := []float64{0, 1, 1}
	for j := range want {
		if math.Abs(s.X[j]-want[j]) > 1e-6 {
			t.Fatalf("x = %v, want %v", s.X, want)
		}
	}
}

func TestMIPIntegralityGap(t *testing.T) {
	// maximize x s.t. 2x <= 7, x integer → x=3 (LP gives 3.5).
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{2}, Rel: LE, RHS: 7},
		},
		Integer: []bool{true},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal || math.Abs(s.X[0]-3) > 1e-9 {
		t.Fatalf("got %v status=%v, want x=3", s.X, s.Status)
	}
}

func TestMIPMinimize(t *testing.T) {
	// minimize 5x + 4y s.t. x + y >= 3, 2x + y >= 4, integer → check against
	// enumeration: candidates (x,y): (1,2)=13, (2,1)=14, (0,4)=16, (3,0)=15,
	// (0,3) violates 2x+y>=4 → best 13.
	p := &Problem{
		Sense:     Minimize,
		Objective: []float64{5, 4},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 3},
			{Coeffs: []float64{2, 1}, Rel: GE, RHS: 4},
		},
		Integer: []bool{true, true},
		Upper:   []float64{10, 10},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-13) > 1e-6 {
		t.Fatalf("objective = %v status=%v, want 13", s.Objective, s.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*Problem{
		{},
		{Objective: []float64{1}, Constraints: []Constraint{{Coeffs: []float64{1, 2}, Rel: LE, RHS: 1}}},
		{Objective: []float64{1}, Lower: []float64{1, 2}},
		{Objective: []float64{1}, Lower: []float64{5}, Upper: []float64{3}},
		{Objective: []float64{1}, Lower: []float64{math.Inf(-1)}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

func TestProblemString(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 3, Name: "cap"},
		},
		Integer:  []bool{true, false},
		VarNames: []string{"nK1", ""},
	}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"nK1", "x1", "cap", "<= 3"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// bruteForceMax enumerates all integer points in the box and returns the best
// feasible objective, or NaN if none.
func bruteForceMax(p *Problem) float64 {
	n := len(p.Objective)
	best := math.NaN()
	var rec func(j int, x []float64)
	rec = func(j int, x []float64) {
		if j == n {
			for _, c := range p.Constraints {
				v := 0.0
				for k := 0; k < n; k++ {
					v += c.Coeffs[k] * x[k]
				}
				switch c.Rel {
				case LE:
					if v > c.RHS+1e-9 {
						return
					}
				case GE:
					if v < c.RHS-1e-9 {
						return
					}
				case EQ:
					if math.Abs(v-c.RHS) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for k := 0; k < n; k++ {
				obj += p.Objective[k] * x[k]
			}
			if math.IsNaN(best) || obj > best {
				best = obj
			}
			return
		}
		lo, hi := p.boundsAt(j)
		for v := lo; v <= hi+1e-9; v++ {
			x[j] = v
			rec(j+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best
}

// TestQuickMIPMatchesBruteForce generates random small all-integer problems
// and checks the branch-and-bound optimum against exhaustive enumeration.
func TestQuickMIPMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(3)
		p := &Problem{
			Objective: make([]float64, n),
			Integer:   make([]bool, n),
			Lower:     make([]float64, n),
			Upper:     make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Objective[j] = float64(rng.Intn(21) - 10)
			p.Integer[j] = true
			p.Lower[j] = 0
			p.Upper[j] = float64(1 + rng.Intn(6))
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: Relation(rng.Intn(2)), RHS: float64(rng.Intn(25) - 5)}
			for j := 0; j < n; j++ {
				c.Coeffs[j] = float64(rng.Intn(11) - 5)
			}
			p.Constraints = append(p.Constraints, c)
		}
		s, err := Solve(p)
		if err != nil {
			t.Logf("seed %d: solve error %v", seed, err)
			return false
		}
		want := bruteForceMax(p)
		if math.IsNaN(want) {
			return s.Status == Infeasible
		}
		if s.Status != Optimal {
			t.Logf("seed %d: status %v but brute force found %v", seed, s.Status, want)
			return false
		}
		if math.Abs(s.Objective-want) > 1e-6 {
			t.Logf("seed %d: objective %v, brute force %v\n%s", seed, s.Objective, want, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLPFeasibleSolutionRespectsConstraints checks that any Optimal
// solution returned actually satisfies every constraint and bound.
func TestQuickLPFeasibleSolutionRespectsConstraints(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := &Problem{
			Objective: make([]float64, n),
			Lower:     make([]float64, n),
			Upper:     make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Objective[j] = rng.Float64()*20 - 10
			p.Lower[j] = rng.Float64() * 2
			p.Upper[j] = p.Lower[j] + rng.Float64()*10
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: Relation(rng.Intn(3)), RHS: rng.Float64()*30 - 5}
			for j := 0; j < n; j++ {
				c.Coeffs[j] = rng.Float64()*10 - 5
			}
			p.Constraints = append(p.Constraints, c)
		}
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return true // infeasible/unbounded is fine here
		}
		for j := 0; j < n; j++ {
			if s.X[j] < p.Lower[j]-1e-6 || s.X[j] > p.Upper[j]+1e-6 {
				t.Logf("seed %d: x[%d]=%v outside [%v,%v]", seed, j, s.X[j], p.Lower[j], p.Upper[j])
				return false
			}
		}
		for i, c := range p.Constraints {
			v := 0.0
			for j := 0; j < n; j++ {
				v += c.Coeffs[j] * s.X[j]
			}
			ok := true
			switch c.Rel {
			case LE:
				ok = v <= c.RHS+1e-5
			case GE:
				ok = v >= c.RHS-1e-5
			case EQ:
				ok = math.Abs(v-c.RHS) <= 1e-5
			}
			if !ok {
				t.Logf("seed %d: constraint %d violated: %v %v %v", seed, i, v, c.Rel, c.RHS)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzerShapedProblem mirrors the exact structure the kernel analyzer
// produces (Section 3.2 of the paper): maximize active threads subject to
// shared-memory, thread, block and concurrency-degree budgets.
func TestAnalyzerShapedProblem(t *testing.T) {
	// Three kernels with (threads/block, smem/block, blocks/SM): im2col
	// (512, 0, 1), sgemm (256, 8192, 2), gemmk (128, 2048, 1).
	tau := []float64{512 * 1, 256 * 2, 128 * 1}
	sm := []float64{0 * 1, 8192 * 2, 2048 * 1}
	blk := []float64{1, 2, 1}
	p := &Problem{
		Objective: tau,
		Constraints: []Constraint{
			{Coeffs: sm, Rel: LE, RHS: 65536, Name: "smem"},
			{Coeffs: tau, Rel: LE, RHS: 2048, Name: "threads"},
			{Coeffs: blk, Rel: LE, RHS: 32, Name: "blocks"},
			{Coeffs: []float64{1, 1, 1}, Rel: LE, RHS: 128, Name: "concurrency"},
		},
		Lower:   []float64{1, 1, 1},
		Upper:   []float64{16, 16, 16},
		Integer: []bool{true, true, true},
	}
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// All solutions must satisfy the thread budget.
	used := 0.0
	for j := range tau {
		used += tau[j] * s.X[j]
	}
	if used > 2048+1e-6 {
		t.Fatalf("thread budget exceeded: %v", used)
	}
	if s.X[0] < 1 || s.X[1] < 1 || s.X[2] < 1 {
		t.Fatalf("every kernel must keep at least one instance: %v", s.X)
	}
}

func BenchmarkMIPAnalyzerShaped(b *testing.B) {
	tau := []float64{512, 512, 128}
	sm := []float64{0, 16384, 2048}
	p := &Problem{
		Objective: tau,
		Constraints: []Constraint{
			{Coeffs: sm, Rel: LE, RHS: 65536},
			{Coeffs: tau, Rel: LE, RHS: 2048},
			{Coeffs: []float64{1, 1, 1}, Rel: LE, RHS: 128},
		},
		Lower:   []float64{1, 1, 1},
		Upper:   []float64{32, 32, 32},
		Integer: []bool{true, true, true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
