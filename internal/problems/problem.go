// Package problems defines the constrained binary optimization problem
// model of the paper (Equation 1) together with seeded generators for the
// five benchmark families of the evaluation — facility location (FLP),
// k-partition (KPP), job scheduling (JSP), set covering (SCP), and graph
// coloring (GCP) — and exact reference solvers used to compute E_opt, the
// feasible-solution count, and the approximation ratio gap.
package problems

import (
	"fmt"
	"math/bits"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
)

// Sense says whether the objective is minimized or maximized.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	if s == Maximize {
		return "max"
	}
	return "min"
}

// Problem is a constrained binary optimization instance:
//
//	min/max f(x)   s.t.  C·x = b,  x ∈ {0,1}^n
//
// Inequality constraints of the source formulations are already converted
// to equalities with binary slack variables by the generators, so C·x = b
// is the only constraint form.
type Problem struct {
	Name   string // e.g. "F1/case0"
	Family string // "FLP", "KPP", "JSP", "SCP", "GCP"
	N      int    // number of binary variables (qubits)

	Sense Sense
	Obj   QuadObjective

	C *linalg.IntMat // #constraints × N
	B []int64

	// Init is a feasible solution constructible in linear time, used as the
	// expansion seed of the transition-Hamiltonian algorithm.
	Init bitvec.Vec

	// Meta carries family-specific shape parameters (e.g. facilities,
	// demands) for reporting.
	Meta map[string]int
}

// NumConstraints returns the number of equality constraints.
func (p *Problem) NumConstraints() int { return p.C.Rows }

// Objective evaluates f(x).
func (p *Problem) Objective(x bitvec.Vec) float64 {
	return p.Obj.Eval(x)
}

// ScoreMin evaluates the objective in canonical minimization form: the raw
// value when minimizing, its negation when maximizing. Lower is always
// better, which is what the variational optimizers expect.
func (p *Problem) ScoreMin(x bitvec.Vec) float64 {
	v := p.Obj.Eval(x)
	if p.Sense == Maximize {
		return -v
	}
	return v
}

// Feasible reports whether C·x = b. Each row is summed over the set bits
// of x, word by word, and the check stops at the first row that misses
// its right-hand side; it allocates nothing. Validate's row bound keeps
// every sum inside int64.
func (p *Problem) Feasible(x bitvec.Vec) bool {
	if x.Len() != p.N {
		return false
	}
	cols := p.C.Cols
	for r, b := range p.B {
		row := p.C.Data[r*cols : (r+1)*cols]
		var s int64
		for k := 0; 64*k < p.N; k++ {
			for w := x.Word(k); w != 0; w &= w - 1 {
				s += row[64*k+bits.TrailingZeros64(w)]
			}
		}
		if s != b {
			return false
		}
	}
	return true
}

// maxRowMagnitude bounds Σ_c |C[r][c]| + |b[r]| for every constraint row
// r. Under it no row sum of C·x over x ∈ {0,1}^n, no partial sum of the
// ternary kernel search and no feasibility check can overflow int64.
const maxRowMagnitude = 1 << 62

// Validate performs internal consistency checks: shape agreement, the
// maxRowMagnitude bound on every constraint row, and feasibility of the
// seed solution. Generators call it before returning, and FromJSON before
// accepting an instance file.
func (p *Problem) Validate() error {
	if p.C.Cols != p.N {
		return fmt.Errorf("problems: %s: C has %d cols, want %d", p.Name, p.C.Cols, p.N)
	}
	if len(p.B) != p.C.Rows {
		return fmt.Errorf("problems: %s: b has %d entries, want %d", p.Name, len(p.B), p.C.Rows)
	}
	if len(p.Obj.Linear) != p.N {
		return fmt.Errorf("problems: %s: objective has %d linear terms, want %d", p.Name, len(p.Obj.Linear), p.N)
	}
	if p.Init.Len() != p.N {
		return fmt.Errorf("problems: %s: init has %d bits, want %d", p.Name, p.Init.Len(), p.N)
	}
	for r := 0; r < p.C.Rows; r++ {
		if !rowWithinMagnitude(p.C.Data[r*p.C.Cols:(r+1)*p.C.Cols], p.B[r]) {
			return fmt.Errorf("problems: %s: constraint row %d: sum of |coefficients| and |rhs| exceeds 2^62", p.Name, r)
		}
	}
	if !p.Feasible(p.Init) {
		return fmt.Errorf("problems: %s: initial solution infeasible", p.Name)
	}
	return nil
}

// rowWithinMagnitude reports whether Σ|row| + |b| ≤ maxRowMagnitude. The
// sum runs in uint64 and stops once it passes the bound: each term is at
// most 2^63, so no partial sum can wrap.
func rowWithinMagnitude(row []int64, b int64) bool {
	abs := func(x int64) uint64 {
		if x < 0 {
			return uint64(-x) // MinInt64 gives 2^63, its magnitude
		}
		return uint64(x)
	}
	s := abs(b)
	for _, c := range row {
		if s > maxRowMagnitude {
			return false
		}
		s += abs(c)
	}
	return s <= maxRowMagnitude
}

// HomogeneousBasis returns an integer basis of the nullspace of C — the
// homogeneous basis {u} of the paper's Section 3 whose signed moves connect
// feasible solutions.
func (p *Problem) HomogeneousBasis() [][]int64 {
	return linalg.Nullspace(p.C)
}

// PenaltyQUBO folds the equality constraints into the objective as squared
// penalty terms with coefficient lambda, producing the unconstrained
// quadratic form used by the penalty-term baselines (P-QAOA, HEA):
//
//	g(x) = score_min(x) + λ Σ_r (C_r·x − b_r)²
//
// The result is always a minimization objective.
func (p *Problem) PenaltyQUBO(lambda float64) QuadObjective {
	q := p.Obj.Clone()
	if p.Sense == Maximize {
		q.Scale(-1)
	}
	for r := 0; r < p.C.Rows; r++ {
		row := p.C.Row(r)
		b := float64(p.B[r])
		// (Σ a_i x_i − b)² = Σ a_i² x_i + 2 Σ_{i<j} a_i a_j x_i x_j
		//                    − 2b Σ a_i x_i + b²   (using x_i² = x_i)
		q.Constant += lambda * b * b
		for i, ai := range row {
			if ai == 0 {
				continue
			}
			a := float64(ai)
			q.Linear[i] += lambda * (a*a - 2*b*a)
			for j := i + 1; j < len(row); j++ {
				if row[j] == 0 {
					continue
				}
				q.AddQuad(i, j, lambda*2*a*float64(row[j]))
			}
		}
	}
	return q
}

// ConstraintViolation returns Σ_r |C_r·x − b_r|, a measure of infeasibility
// used by diagnostics and by the HEA/P-QAOA classical loop.
func (p *Problem) ConstraintViolation(x bitvec.Vec) int64 {
	got := p.C.MulVecBits(x.Ints())
	var s int64
	for r, g := range got {
		d := g - p.B[r]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
