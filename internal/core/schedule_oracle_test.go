package core

import (
	"fmt"
	"reflect"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/problems"
)

// buildScheduleTwoSet is the dry run as first written: the unpruned chain
// and the pruned chain each keep their own reachable set, the pruning
// decision counts a move's new states against the pruned set through a
// dedupe map, and then applies the move. BuildSchedule keeps one set;
// this oracle pins that the two constructions return the same Schedule.
func buildScheduleTwoSet(p *problems.Problem, b *Basis, opts ScheduleOptions) *Schedule {
	pool := b.Vectors
	m := len(pool)
	rounds := opts.Rounds
	if rounds <= 0 {
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

	sched := &Schedule{}
	reach := map[bitvec.Vec]bool{p.Init: true}
	reachPruned := map[bitvec.Vec]bool{p.Init: true}
	consecutiveNoop := 0
	moves := bitvec.NewMoves(pool)

	if opts.SparsestFirst {
		for len(sched.Ops) < maxOps && len(reach) < maxStates {
			applied := false
			for k, u := range pool {
				if twoSetExpandCount(reach, &moves[k]) == 0 {
					continue
				}
				tr := Transition{U: u}
				sched.Ops = append(sched.Ops, tr)
				sched.AllOps = append(sched.AllOps, tr)
				twoSetExpandInto(reach, &moves[k])
				sched.TraceOps = append(sched.TraceOps, len(reach))
				sched.TraceAll = append(sched.TraceAll, len(reach))
				applied = true
				break
			}
			if !applied {
				break
			}
		}
		if len(reach) >= maxStates {
			sched.TruncatedCoverage = true
		}
		for x := range reach {
			sched.Reachable = append(sched.Reachable, x)
		}
		sortVecs(sched.Reachable)
		return sched
	}

buildLoop:
	for r := 0; r < rounds; r++ {
		for k, u := range pool {
			if len(sched.AllOps) >= maxOps {
				break buildLoop
			}
			if len(reach) >= maxStates || len(reachPruned) >= maxStates {
				sched.TruncatedCoverage = true
				break buildLoop
			}
			tr := Transition{U: u}
			sched.AllOps = append(sched.AllOps, tr)
			twoSetExpandInto(reach, &moves[k])
			sched.TraceAll = append(sched.TraceAll, len(reach))

			grew := twoSetExpandCount(reachPruned, &moves[k])
			if opts.DisablePrune {
				sched.Ops = append(sched.Ops, tr)
				twoSetExpandInto(reachPruned, &moves[k])
				sched.TraceOps = append(sched.TraceOps, len(reachPruned))
				continue
			}
			if grew == 0 {
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
			twoSetExpandInto(reachPruned, &moves[k])
			sched.TraceOps = append(sched.TraceOps, len(reachPruned))
		}
	}

	for x := range reachPruned {
		sched.Reachable = append(sched.Reachable, x)
	}
	sortVecs(sched.Reachable)
	return sched
}

func twoSetExpandInto(reach map[bitvec.Vec]bool, u *bitvec.Move) {
	var add []bitvec.Vec
	for x := range reach {
		if y, ok := u.Add(x); ok && !reach[y] {
			add = append(add, y)
		}
		if y, ok := u.Sub(x); ok && !reach[y] {
			add = append(add, y)
		}
	}
	for _, y := range add {
		reach[y] = true
	}
}

func twoSetExpandCount(reach map[bitvec.Vec]bool, u *bitvec.Move) int {
	seen := map[bitvec.Vec]bool{}
	for x := range reach {
		if y, ok := u.Add(x); ok && !reach[y] {
			seen[y] = true
		}
		if y, ok := u.Sub(x); ok && !reach[y] {
			seen[y] = true
		}
	}
	return len(seen)
}

// TestScheduleMatchesTwoSetDryRun compares whole Schedule structs from
// the one-set dry run and the two-set oracle: 20 suite cells × cases 0–2
// × two basis options × six schedule options that reach pruning, its
// ablation, the sparsest-first chain, a short round count with a tight
// early-stop window, the tracked-state cap and the operator cap.
func TestScheduleMatchesTwoSetDryRun(t *testing.T) {
	bases := []BasisOptions{{}, {DisableSimplify: true}}
	scheds := []ScheduleOptions{
		{},
		{DisablePrune: true},
		{SparsestFirst: true},
		{Rounds: 1, EarlyStopWindow: 2},
		{MaxTrackedStates: 16},
		{MaxOps: 5},
	}
	n := 0
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			for _, bo := range bases {
				basis, err := BuildBasis(p, bo)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				for _, so := range scheds {
					got := BuildSchedule(p, basis, so)
					want := buildScheduleTwoSet(p, basis, so)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %+v %+v: one-set dry run differs from the two-set oracle:\n got  %s\n want %s",
							p.Name, bo, so, scheduleSummary(got), scheduleSummary(want))
					}
					n++
				}
			}
		}
	}
	if n != 720 {
		t.Fatalf("compared %d schedules, want 720", n)
	}
}

func scheduleSummary(s *Schedule) string {
	return fmt.Sprintf("ops=%d all=%d traceAll=%v traceOps=%v reach=%d pruned=%d early=%v trunc=%v",
		len(s.Ops), len(s.AllOps), s.TraceAll, s.TraceOps, len(s.Reachable), s.PrunedCount, s.EarlyStopped, s.TruncatedCoverage)
}
