package core

import (
	"slices"

	"rasengan/internal/bitvec"
	"rasengan/internal/problems"
)

// ScheduleOptions configures schedule construction.
type ScheduleOptions struct {
	// Rounds is how many passes over the vector pool to schedule; 0 picks
	// Theorem 1's bound: m passes for totally unimodular constraints
	// (m² operators), m² passes (m³ operators) otherwise, relying on the
	// early stop and MaxOps cap to terminate.
	Rounds int
	// DisablePrune turns off redundant-operator pruning (ablation opt 2).
	DisablePrune bool
	// EarlyStopWindow is the number of consecutive non-expanding operators
	// after which the tail is cut; 0 means the pool size m (Figure 6b).
	EarlyStopWindow int
	// MaxOps caps the unpruned schedule length defensively.
	MaxOps int
	// MaxTrackedStates caps the dry-run reachability sets; construction
	// stops once the feasible expansion tracks this many states (wide
	// instances whose feasible space cannot be held explicitly). 0 means
	// 50,000.
	MaxTrackedStates int
	// SparsestFirst switches schedule construction from the paper's
	// round-robin (m passes over the pool) to a stratified greedy: always
	// apply the sparsest pool vector that still expands the feasible
	// reach, admitting denser (deeper-circuit) operators only when no
	// sparser one can make progress. Coverage is the same; the admitted
	// operators are cheaper. Off by default to keep the paper-faithful
	// chain semantics Figure 17 measures.
	SparsestFirst bool
}

// Schedule is the ordered transition-operator sequence Rasengan executes,
// together with the dry-run expansion bookkeeping that drives pruning and
// the Figure 17 analysis.
type Schedule struct {
	// Ops is the final (possibly pruned) operator sequence.
	Ops []Transition
	// AllOps is the full unpruned sequence of the same construction.
	AllOps []Transition
	// TraceAll[i] is the number of feasible states reachable after the
	// first i+1 operators of AllOps (classical dry run).
	TraceAll []int
	// TraceOps is the same for the pruned sequence.
	TraceOps []int
	// Reachable is the feasible set the pruned schedule covers, sorted.
	Reachable []bitvec.Vec
	// PrunedCount is how many operators pruning removed.
	PrunedCount int
	// EarlyStopped reports whether the tail was cut by the m-consecutive
	// no-op rule rather than by running out of rounds.
	EarlyStopped bool
	// TruncatedCoverage reports that the dry run hit MaxTrackedStates and
	// construction stopped with possibly incomplete coverage.
	TruncatedCoverage bool
}

// BuildSchedule constructs the operator sequence: `rounds` round-robin
// passes over the basis pool, dry-run against the feasible graph from the
// problem seed, with redundant operators removed and the tail early-
// stopped (Section 4.1, "Hamiltonian pruning"). The dry run is classical
// and one-shot, exactly as the paper prescribes: redundancy is discovered
// offline and reused across all variational iterations.
func BuildSchedule(p *problems.Problem, b *Basis, opts ScheduleOptions) *Schedule {
	pool := b.Vectors
	m := len(pool)
	rounds := opts.Rounds
	if rounds <= 0 {
		// Theorem 1: m rounds of the m transition Hamiltonians (m² total)
		// cover all feasible solutions for totally unimodular constraints;
		// the general bound is m³ operators, i.e. m² rounds. Early stop
		// and the MaxOps cap keep the general case affordable in practice.
		rounds = b.M
		if !b.TU {
			rounds = b.M * b.M
		}
		if rounds < 1 {
			rounds = 1
		}
	}
	window := opts.EarlyStopWindow
	if window <= 0 {
		window = m
	}
	maxOps := opts.MaxOps
	if maxOps <= 0 {
		maxOps = 4096
	}
	maxStates := opts.MaxTrackedStates
	if maxStates <= 0 {
		maxStates = 50000
	}

	// One reachable set serves both chains. An operator is pruned only
	// when applying it would add no state, so skipping it leaves the set
	// exactly as applying it would: the pruned chain's reach always equals
	// the unpruned chain's, and the count expand returns decides pruning.
	sched := &Schedule{}
	moves := bitvec.NewMoves(pool)
	if opts.SparsestFirst {
		buildSparsestFirst(sched, p, pool, moves, maxOps, maxStates)
		return sched
	}
	reach := bitvec.NewSet(p.Init)
	consecutiveNoop := 0

buildLoop:
	for r := 0; r < rounds; r++ {
		for k, u := range pool {
			if len(sched.AllOps) >= maxOps {
				break buildLoop
			}
			if reach.Len() >= maxStates {
				sched.TruncatedCoverage = true
				break buildLoop
			}
			tr := Transition{U: u}
			sched.AllOps = append(sched.AllOps, tr)
			grew := expand(reach, &moves[k])
			sched.TraceAll = append(sched.TraceAll, reach.Len())
			if grew == 0 && !opts.DisablePrune {
				sched.PrunedCount++
				consecutiveNoop++
				if consecutiveNoop >= window {
					sched.EarlyStopped = true
					break buildLoop
				}
				continue
			}
			consecutiveNoop = 0
			sched.Ops = append(sched.Ops, tr)
			sched.TraceOps = append(sched.TraceOps, reach.Len())
		}
	}
	// The set is not used again, so its states are sorted in place.
	sched.Reachable = reach.States()
	sortVecs(sched.Reachable)
	return sched
}

// buildSparsestFirst fills sched with the stratified-greedy chain: scan
// the (nnz-sorted) pool from the sparsest vector and apply the first one
// that expands the reach, then rescan from the start; stop when no vector
// expands or a budget trips. Trying a vector that expands nothing leaves
// the reach unchanged.
func buildSparsestFirst(sched *Schedule, p *problems.Problem, pool [][]int64, moves []bitvec.Move, maxOps, maxStates int) {
	reach := bitvec.NewSet(p.Init)
	for len(sched.Ops) < maxOps && reach.Len() < maxStates {
		applied := false
		for k, u := range pool {
			if expand(reach, &moves[k]) == 0 {
				continue
			}
			tr := Transition{U: u}
			sched.Ops = append(sched.Ops, tr)
			sched.AllOps = append(sched.AllOps, tr)
			sched.TraceOps = append(sched.TraceOps, reach.Len())
			sched.TraceAll = append(sched.TraceAll, reach.Len())
			applied = true
			break
		}
		if !applied {
			break
		}
	}
	if reach.Len() >= maxStates {
		sched.TruncatedCoverage = true
	}
	// The set is not used again, so its states are sorted in place.
	sched.Reachable = reach.States()
	sortVecs(sched.Reachable)
}

// expand adds to r every state reachable from it by one ±u move and
// returns how many it added. The added states need no dedupe: each has
// exactly one source and direction, since x+u = x′+u forces x = x′ and
// x+u = x′−u would need x′ = x+2u, which is not binary. So each is
// appended as found, and the walk covers only the states held before it
// began.
func expand(r *bitvec.Set, u *bitvec.Move) int {
	n := r.Len()
	for _, x := range r.States()[:n] {
		r.Step(x, u)
	}
	return r.Len() - n
}

// sortVecs sorts v into Compare order. Callers pass distinct states, so
// the unstable sort has a single possible result.
func sortVecs(v []bitvec.Vec) {
	slices.SortFunc(v, bitvec.Vec.Compare)
}

// CoverageFraction returns, for a dry-run trace, the fraction of the
// chain needed to reach full coverage — the Figure 17 metric. It returns
// 1 when the trace never reaches target.
func CoverageFraction(trace []int, target int) float64 {
	for i, c := range trace {
		if c >= target {
			return float64(i+1) / float64(len(trace))
		}
	}
	return 1
}
