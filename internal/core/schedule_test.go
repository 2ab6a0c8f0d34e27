package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/problems"
)

func TestBuildScheduleCoversFeasibleSpace(t *testing.T) {
	for _, b := range problems.Suite() {
		p := b.Generate(0)
		basis, err := BuildBasis(p, BasisOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sched := BuildSchedule(p, basis, ScheduleOptions{})
		if len(sched.Ops) == 0 {
			t.Fatalf("%s: empty schedule", p.Name)
		}
		if p.N <= 20 {
			want := len(problems.EnumerateFeasible(p, 0))
			if len(sched.Reachable) != want {
				t.Errorf("%s: schedule reaches %d of %d feasible states", p.Name, len(sched.Reachable), want)
			}
		}
	}
}

func TestPruningShortensSchedule(t *testing.T) {
	p := problems.FLP(2, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned := BuildSchedule(p, basis, ScheduleOptions{})
	unpruned := BuildSchedule(p, basis, ScheduleOptions{DisablePrune: true})
	if len(pruned.Ops) >= len(unpruned.Ops) {
		t.Errorf("pruning did not shorten: %d vs %d", len(pruned.Ops), len(unpruned.Ops))
	}
	// Pruning must not lose coverage.
	if len(pruned.Reachable) < len(unpruned.Reachable) {
		t.Error("pruning lost reachable states")
	}
}

func TestScheduleTraceMonotone(t *testing.T) {
	p := problems.SCP(2, 1)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{DisablePrune: true})
	prev := 0
	for i, c := range sched.TraceAll {
		if c < prev {
			t.Fatalf("trace decreased at %d: %v", i, sched.TraceAll)
		}
		prev = c
	}
	if prev < 2 {
		t.Error("expansion never grew")
	}
}

func TestEarlyStop(t *testing.T) {
	p := problems.JSP(1, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With many rounds the tail must be early-stopped rather than kept.
	sched := BuildSchedule(p, basis, ScheduleOptions{Rounds: 50})
	if !sched.EarlyStopped {
		t.Error("50 rounds on a tiny instance should early-stop")
	}
	if len(sched.Ops) >= 50*len(basis.Vectors) {
		t.Error("schedule not truncated")
	}
}

func TestMaxOpsCap(t *testing.T) {
	p := problems.FLP(1, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{DisablePrune: true, Rounds: 10000, MaxOps: 37})
	if len(sched.AllOps) > 37 {
		t.Errorf("MaxOps ignored: %d", len(sched.AllOps))
	}
}

func TestCoverageFraction(t *testing.T) {
	trace := []int{1, 2, 2, 5, 5, 5}
	if f := CoverageFraction(trace, 5); f != 4.0/6.0 {
		t.Errorf("CoverageFraction = %v", f)
	}
	if f := CoverageFraction(trace, 10); f != 1 {
		t.Errorf("unreached target should give 1, got %v", f)
	}
}

func TestSparsestFirstSchedule(t *testing.T) {
	p := problems.GenerateFLP(problems.FLPConfig{Demands: 6, Facilities: 3}, 7)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr := BuildSchedule(p, basis, ScheduleOptions{MaxTrackedStates: 3000})
	sf := BuildSchedule(p, basis, ScheduleOptions{MaxTrackedStates: 3000, SparsestFirst: true})
	if len(sf.Ops) == 0 {
		t.Fatal("empty sparsest-first schedule")
	}
	// The greedy chain must not use denser operators than the round-robin
	// chain's densest, and typically uses sparser ones.
	maxNnz := func(ops []Transition) int {
		m := 0
		for _, op := range ops {
			if n := NonZero(op.U); n > m {
				m = n
			}
		}
		return m
	}
	if maxNnz(sf.Ops) > maxNnz(rr.Ops) {
		t.Errorf("sparsest-first used denser ops: %d vs %d", maxNnz(sf.Ops), maxNnz(rr.Ops))
	}
	// Coverage must not regress (both capped runs track the same budget).
	if len(sf.Reachable) < len(rr.Reachable)/2 {
		t.Errorf("sparsest-first coverage collapsed: %d vs %d", len(sf.Reachable), len(rr.Reachable))
	}
}

func TestSparsestFirstSmallCoverage(t *testing.T) {
	// On small instances the greedy chain must reach full coverage too.
	for _, label := range []string{"F2", "S2", "G3"} {
		b, err := problems.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Generate(0)
		basis, err := BuildBasis(p, BasisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sf := BuildSchedule(p, basis, ScheduleOptions{SparsestFirst: true})
		want := len(problems.EnumerateFeasible(p, 0))
		if len(sf.Reachable) != want {
			t.Errorf("%s: greedy chain covers %d of %d", label, len(sf.Reachable), want)
		}
	}
}

// TestSortVecsMatchesSortSlice checks sortVecs against sort.Slice over
// Compare on a few thousand shuffled distinct states.
func TestSortVecsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 150
	seen := map[bitvec.Vec]bool{}
	var states []bitvec.Vec
	for len(states) < 4000 {
		v := bitvec.New(n)
		for k := 0; k < 6; k++ {
			v.Set(rng.Intn(n), true)
		}
		if !seen[v] {
			seen[v] = true
			states = append(states, v)
		}
	}
	rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
	want := slices.Clone(states)
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	sortVecs(states)
	if !slices.Equal(states, want) {
		t.Fatal("sortVecs order differs from sort.Slice over Compare")
	}
}
