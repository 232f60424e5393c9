package milp

import "math"

// solveLP maximizes obj·x subject to the given constraints and box bounds
// lower ≤ x ≤ upper (lower finite, upper possibly +inf). It uses a dense
// two-phase primal simplex on the shifted problem y = x − lower ≥ 0, with
// finite upper bounds materialized as explicit rows. Bland's rule guarantees
// termination. Returns the solution in the original variable space.
func solveLP(obj []float64, cons []Constraint, lower, upper []float64) (x []float64, val float64, st Status, iters int) {
	n := len(obj)

	// Shifted RHS for each constraint: b − A·lower.
	type row struct {
		a   []float64
		rel Relation
		b   float64
	}
	rows := make([]row, 0, len(cons)+n)
	for _, c := range cons {
		b := c.RHS
		for j := 0; j < n; j++ {
			b -= c.Coeffs[j] * lower[j]
		}
		rows = append(rows, row{a: c.Coeffs, rel: c.Rel, b: b})
	}
	// Finite upper bounds become y_j ≤ hi − lo rows.
	for j := 0; j < n; j++ {
		if math.IsInf(upper[j], 1) {
			continue
		}
		a := make([]float64, n)
		a[j] = 1
		rows = append(rows, row{a: a, rel: LE, b: upper[j] - lower[j]})
	}

	m := len(rows)
	// Column layout: [0,n) structural, then one slack/surplus per inequality,
	// then one artificial per GE/EQ row (and per negative-RHS LE row after
	// normalization).
	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	// Normalize RHS ≥ 0 by flipping rows; flipping changes LE<->GE.
	norm := make([]row, m)
	for i, r := range rows {
		a := append([]float64(nil), r.a...)
		b := r.b
		rel := r.rel
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		norm[i] = row{a: a, rel: rel, b: b}
	}

	nArt := 0
	for _, r := range norm {
		if r.rel != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// Tableau: m rows × (total+1) columns (last = RHS). Basis per row.
	t := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	artStart := artCol
	for i, r := range norm {
		t[i] = make([]float64, total+1)
		copy(t[i], r.a)
		t[i][total] = r.b
		switch r.rel {
		case LE:
			t[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			t[i][slackCol] = -1
			slackCol++
			t[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			t[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: maximize −Σ artificials if any exist.
	if nArt > 0 {
		c1 := make([]float64, total)
		for j := artStart; j < total; j++ {
			c1[j] = -1
		}
		ok, it := simplexPivot(t, basis, c1, total)
		iters += it
		if !ok {
			return nil, 0, IterLimit, iters
		}
		// Feasible iff all artificials are (near) zero.
		sum := 0.0
		for i := 0; i < m; i++ {
			if basis[i] >= artStart {
				sum += t[i][total]
			}
		}
		if sum > 1e-7 {
			return nil, 0, Infeasible, iters
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			piv := -1
			for j := 0; j < artStart; j++ {
				if math.Abs(t[i][j]) > eps {
					piv = j
					break
				}
			}
			if piv >= 0 {
				pivot(t, i, piv)
				basis[i] = piv
			}
			// If no pivot exists the row is redundant (all-zero); the basic
			// artificial stays at value 0 and is harmless in phase 2 because
			// its column is excluded from pricing below.
		}
	}

	// Phase 2: maximize the real objective; artificial columns are frozen.
	c2 := make([]float64, total)
	copy(c2, obj)
	ok, it := simplexPivot(t, basis, c2, artStart)
	iters += it
	if !ok {
		return nil, 0, IterLimit, iters
	}
	// Detect unboundedness: simplexPivot returns ok with a flag via
	// sentinel — handled inside; re-check by scanning one more time.
	if unbounded(t, basis, c2, artStart) {
		return nil, 0, Unbounded, iters
	}

	y := make([]float64, total)
	for i := 0; i < m; i++ {
		y[basis[i]] = t[i][total]
	}
	x = make([]float64, n)
	val = 0
	for j := 0; j < n; j++ {
		x[j] = y[j] + lower[j]
		val += obj[j] * y[j]
	}
	// Objective in the original space includes the shift term obj·lower.
	for j := 0; j < n; j++ {
		val += 0 // shift already folded into x; recompute cleanly below
	}
	val = 0
	for j := 0; j < n; j++ {
		val += obj[j] * x[j]
	}
	return x, val, Optimal, iters
}

// simplexPivot runs primal simplex pivots maximizing c, pricing only the
// first nCols columns (phase 2 passes artStart to exclude the artificial
// columns). Returns false when the iteration limit is hit.
func simplexPivot(t [][]float64, basis []int, c []float64, nCols int) (bool, int) {
	m := len(t)
	if m == 0 {
		return true, 0
	}
	iters := 0
	for ; iters < maxIterations; iters++ {
		// Reduced costs: rc_j = c_j − c_B · B⁻¹A_j. With an explicit tableau
		// the column t[:,j] already is B⁻¹A_j.
		enter := -1
		for j := 0; j < nCols; j++ {
			rc := c[j]
			for i := 0; i < m; i++ {
				cb := c[basis[i]]
				if cb != 0 {
					rc -= cb * t[i][j]
				}
			}
			if rc > eps {
				enter = j // Bland: first improving column
				break
			}
		}
		if enter < 0 {
			return true, iters // optimal
		}
		// Ratio test with Bland's tie-break on lowest basis index.
		leave := -1
		bestRatio := math.Inf(1)
		rhs := len(t[0]) - 1
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				r := t[i][rhs] / t[i][enter]
				if r < bestRatio-eps || (math.Abs(r-bestRatio) <= eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			// Unbounded direction; mark by setting a huge basic value so the
			// caller's unbounded() check fires. We simply return optimal here
			// and let unbounded() re-derive the condition.
			return true, iters
		}
		pivot(t, leave, enter)
		basis[leave] = enter
	}
	return false, iters
}

// unbounded reports whether an improving column with no blocking row exists,
// i.e. the LP is unbounded at the current (otherwise optimal-looking) basis.
func unbounded(t [][]float64, basis []int, c []float64, nCols int) bool {
	m := len(t)
	if m == 0 {
		// No constraints at all: unbounded iff any positive objective coeff.
		for j := 0; j < nCols; j++ {
			if c[j] > eps {
				return true
			}
		}
		return false
	}
	for j := 0; j < nCols; j++ {
		rc := c[j]
		for i := 0; i < m; i++ {
			cb := c[basis[i]]
			if cb != 0 {
				rc -= cb * t[i][j]
			}
		}
		if rc > eps {
			blocked := false
			for i := 0; i < m; i++ {
				if t[i][j] > eps {
					blocked = true
					break
				}
			}
			if !blocked {
				return true
			}
		}
	}
	return false
}

// pivot performs a Gauss-Jordan pivot on t[row][col].
func pivot(t [][]float64, row, col int) {
	p := t[row][col]
	inv := 1 / p
	for j := range t[row] {
		t[row][j] *= inv
	}
	t[row][col] = 1 // exact
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := range t[i] {
			t[i][j] -= f * t[row][j]
		}
		t[i][col] = 0 // exact
	}
}
