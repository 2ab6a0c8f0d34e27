package problems

import (
	"fmt"
	"sort"

	"rasengan/internal/bitvec"
)

// Reference holds the exact reference answer for an instance: the optimum
// value, one optimal solution, the full feasible count, and (optionally)
// the mean objective over feasible solutions, which the hardware evaluation
// uses as the "mean feasible" baseline of Figure 11.
type Reference struct {
	Opt          float64
	OptSolution  bitvec.Vec
	NumFeasible  int
	MeanFeasible float64
	WorstCase    float64
}

// EnumerateFeasible lists all feasible solutions by depth-first search with
// per-constraint interval pruning. It is exact and fast for the benchmark
// sizes (n ≤ ~26). maxCount > 0 caps the enumeration; 0 means unlimited.
func EnumerateFeasible(p *Problem, maxCount int) []bitvec.Vec {
	n := p.N
	rows := p.C.Rows
	// For pruning: per row, suffix sums of positive and negative
	// coefficients over variables i..n-1.
	sufPos := make([][]int64, rows)
	sufNeg := make([][]int64, rows)
	for r := 0; r < rows; r++ {
		sufPos[r] = make([]int64, n+1)
		sufNeg[r] = make([]int64, n+1)
		for i := n - 1; i >= 0; i-- {
			c := p.C.At(r, i)
			sufPos[r][i] = sufPos[r][i+1]
			sufNeg[r][i] = sufNeg[r][i+1]
			if c > 0 {
				sufPos[r][i] += c
			} else {
				sufNeg[r][i] += c
			}
		}
	}
	var out []bitvec.Vec
	cur := bitvec.New(n)
	sums := make([]int64, rows)
	var dfs func(i int) bool // returns false to stop early
	dfs = func(i int) bool {
		for r := 0; r < rows; r++ {
			if sums[r]+sufPos[r][i] < p.B[r] || sums[r]+sufNeg[r][i] > p.B[r] {
				return true // this subtree cannot reach b; keep searching elsewhere
			}
		}
		if i == n {
			out = append(out, cur)
			return maxCount <= 0 || len(out) < maxCount
		}
		// x_i = 0
		if !dfs(i + 1) {
			return false
		}
		// x_i = 1
		cur.Set(i, true)
		for r := 0; r < rows; r++ {
			sums[r] += p.C.At(r, i)
		}
		ok := dfs(i + 1)
		cur.Set(i, false)
		for r := 0; r < rows; r++ {
			sums[r] -= p.C.At(r, i)
		}
		return ok
	}
	dfs(0)
	return out
}

// ExactReference computes the reference answer by exhaustive feasible
// enumeration. It returns an error when the instance has no feasible
// solution, which indicates a generator bug.
func ExactReference(p *Problem) (Reference, error) {
	feas := EnumerateFeasible(p, 0)
	if len(feas) == 0 {
		return Reference{}, fmt.Errorf("problems: %s has no feasible solutions", p.Name)
	}
	return referenceFrom(p, feas), nil
}

// ReferenceFromSet computes reference statistics from an externally
// enumerated feasible set (e.g. the homogeneous-basis BFS used for
// large-variable instances whose feasible space is small).
func ReferenceFromSet(p *Problem, feas []bitvec.Vec) (Reference, error) {
	if len(feas) == 0 {
		return Reference{}, fmt.Errorf("problems: %s: empty feasible set", p.Name)
	}
	return referenceFrom(p, feas), nil
}

func referenceFrom(p *Problem, feas []bitvec.Vec) Reference {
	ref := Reference{NumFeasible: len(feas)}
	sum := 0.0
	for i, x := range feas {
		v := p.Objective(x)
		sum += v
		better := false
		if i == 0 {
			better = true
		} else if p.Sense == Minimize {
			better = v < ref.Opt
		} else {
			better = v > ref.Opt
		}
		if better {
			ref.Opt = v
			ref.OptSolution = x
		}
		worse := false
		if i == 0 {
			worse = true
		} else if p.Sense == Minimize {
			worse = v > ref.WorstCase
		} else {
			worse = v < ref.WorstCase
		}
		if worse {
			ref.WorstCase = v
		}
	}
	ref.MeanFeasible = sum / float64(len(feas))
	return ref
}

// FeasibleBFS enumerates the feasible space by breadth-first expansion from
// the seed solution using signed moves along the homogeneous basis — the
// classical counterpart of the transition-Hamiltonian expansion, and the
// reference enumerator for instances too wide for exhaustive search (it
// scales with the number of feasible solutions, not 2^n). maxStates > 0
// caps the search.
func FeasibleBFS(p *Problem, basis [][]int64, maxStates int) []bitvec.Vec {
	return sortedKeys(feasibleClosure(p, basis, maxStates))
}

// FeasibleClosureSize returns len(FeasibleBFS(p, basis, maxStates))
// without sorting the states it counts.
func FeasibleClosureSize(p *Problem, basis [][]int64, maxStates int) int {
	return len(feasibleClosure(p, basis, maxStates))
}

func feasibleClosure(p *Problem, basis [][]int64, maxStates int) map[bitvec.Vec]bool {
	moves := bitvec.NewMoves(basis)
	seen := map[bitvec.Vec]bool{p.Init: true}
	queue := []bitvec.Vec{p.Init}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for k := range moves {
			for _, add := range [...]bool{true, false} {
				var y bitvec.Vec
				var ok bool
				if add {
					y, ok = moves[k].Add(x)
				} else {
					y, ok = moves[k].Sub(x)
				}
				if !ok || seen[y] {
					continue
				}
				seen[y] = true
				queue = append(queue, y)
				if maxStates > 0 && len(seen) >= maxStates {
					return seen
				}
			}
		}
	}
	return seen
}

func sortedKeys(m map[bitvec.Vec]bool) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
