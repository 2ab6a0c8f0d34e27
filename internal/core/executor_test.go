package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

func TestNewExecutorEmptySchedule(t *testing.T) {
	p := problems.FLP(1, 0)
	if _, err := NewExecutor(p, nil, ExecOptions{}); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestExecutorWrongTimeVector(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	exec, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run([]float64{0.1}, rand.New(rand.NewSource(1))); err == nil && exec.NumParams() != 1 {
		t.Error("mismatched time vector accepted")
	}
}

func TestExecutorDepthBudgetRespected(t *testing.T) {
	p := problems.SCP(3, 0)
	ops := mustBasisAndSchedule(t, p)
	const budget = 60
	exec, err := NewExecutor(p, ops, ExecOptions{DepthBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range exec.segments {
		if len(seg) > 1 && exec.SegmentDepths[i] > budget {
			t.Errorf("multi-op segment %d has depth %d > budget %d", i, exec.SegmentDepths[i], budget)
		}
	}
}

func TestExecutorSegmentsPartitionOps(t *testing.T) {
	p := problems.KPP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	exec, err := NewExecutor(p, ops, ExecOptions{OpsPerSegment: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, seg := range exec.segments {
		for _, op := range seg {
			if seen[op] {
				t.Fatalf("operator %d in two segments", op)
			}
			seen[op] = true
		}
	}
	if len(seen) != len(ops) {
		t.Errorf("segments cover %d of %d ops", len(seen), len(ops))
	}
}

// TestExactMatchesManySampledShots: the sampled path converges to the
// exact path as shots grow (same times, no noise).
func TestExactMatchesManySampledShots(t *testing.T) {
	p := problems.FLP(1, 1)
	ops := mustBasisAndSchedule(t, p)
	times := make([]float64, len(ops))
	for i := range times {
		times[i] = 0.65
	}
	exact, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exactDist, err := exact.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewExecutor(p, ops, ExecOptions{Shots: 200000})
	if err != nil {
		t.Fatal(err)
	}
	sampDist, err := sampled.Run(times, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for x, pe := range exactDist {
		if math.Abs(pe-sampDist[x]) > 0.02 {
			t.Errorf("state %v: exact %.4f vs sampled %.4f", x, pe, sampDist[x])
		}
	}
}

// TestHeavyNoiseTerminatesEarly injects catastrophic noise so that no
// feasible state survives purification, exercising the early-termination
// failure mode of Figures 10(d)/14(b).
func TestHeavyNoiseTerminatesEarly(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	dev := device.Kyiv()
	dev.Noise.TwoQubitDepol = 0.9
	dev.Noise.ReadoutError = 0.45
	exec, err := NewExecutor(p, ops, ExecOptions{Shots: 64, OpsPerSegment: 1, Device: dev, Trajectories: 64})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, len(ops))
	for i := range times {
		times[i] = 0.7
	}
	rng := rand.New(rand.NewSource(3))
	failed := false
	for trial := 0; trial < 20 && !failed; trial++ {
		if _, err := exec.Run(times, rng); err != nil {
			failed = true
			if !exec.LastTerminatedEarly {
				t.Error("failure did not set LastTerminatedEarly")
			}
		}
	}
	if !failed {
		t.Error("catastrophic noise never terminated a run")
	}
}

func TestScheduleTruncatedCoverage(t *testing.T) {
	p := problems.SCP(4, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{MaxTrackedStates: 5})
	if !sched.TruncatedCoverage {
		t.Error("tiny state cap should truncate coverage")
	}
}

func TestPurifyAndNormalizeHelpers(t *testing.T) {
	p := problems.FLP(1, 0)
	d := map[bitvec.Vec]float64{
		p.Init:          0.5,
		bitvec.New(p.N): 0.5, // all-zeros is infeasible (no assignment)
	}
	purifyDist(d, p)
	if len(d) != 1 {
		t.Fatalf("purify kept %d states", len(d))
	}
	normalizeDist(d)
	if math.Abs(d[p.Init]-1) > 1e-12 {
		t.Error("normalize failed")
	}
	empty := map[bitvec.Vec]float64{}
	normalizeDist(empty) // must not panic on zero mass
}

func TestSolveDistributionConcentratesOnOptimum(t *testing.T) {
	// After enough iterations the exact-mode solver should put most of
	// the probability mass on the optimal basis state — the paper's
	// "basis state output" claim.
	p := problems.FLP(2, 3)
	ref, err := problems.ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, Options{MaxIter: 240, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution[ref.OptSolution] < 0.8 {
		t.Errorf("optimum mass = %.3f, want ≥ 0.8", res.Distribution[ref.OptSolution])
	}
}

func TestShotGrowthSchedule(t *testing.T) {
	o := ExecOptions{Shots: 100, ShotGrowth: 10, MaxShotsPerSegment: 5000}
	if o.shotsForSegment(0) != 100 {
		t.Errorf("segment 0 shots = %d", o.shotsForSegment(0))
	}
	if o.shotsForSegment(1) != 1000 {
		t.Errorf("segment 1 shots = %d", o.shotsForSegment(1))
	}
	if o.shotsForSegment(2) != 5000 {
		t.Errorf("segment 2 should cap at 5000, got %d", o.shotsForSegment(2))
	}
	flat := ExecOptions{Shots: 100}
	if flat.shotsForSegment(3) != 100 {
		t.Error("flat schedule should not grow")
	}
}

// TestShotGrowthSaturatesAtCap: once Shots·ShotGrowth^i passes 2^63 the
// budget must stay at its cap instead of wrapping through the int
// conversion; an infinite product caps too.
func TestShotGrowthSaturatesAtCap(t *testing.T) {
	o := ExecOptions{Shots: 1024, ShotGrowth: 10}
	want := 1024
	for i := 0; i < 40; i++ {
		if got := o.shotsForSegment(i); got != want {
			t.Errorf("segment %d shots = %d, want %d", i, got, want)
		}
		want = min(want*10, 65536)
	}
	inf := ExecOptions{Shots: 2, ShotGrowth: math.MaxFloat64, MaxShotsPerSegment: 7}
	if got := inf.shotsForSegment(2); got != 7 {
		t.Errorf("infinite growth: shots = %d, want the cap 7", got)
	}
}

func TestShotGrowthExecution(t *testing.T) {
	// The dynamic shot schedule of Figure 7: later segments take more
	// shots, which must show up in the accounting.
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	grow, err := NewExecutor(p, ops, ExecOptions{Shots: 128, OpsPerSegment: 1, ShotGrowth: 2})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, len(ops))
	for i := range times {
		times[i] = 0.6
	}
	if _, err := grow.Run(times, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	flat, err := NewExecutor(p, ops, ExecOptions{Shots: 128, OpsPerSegment: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Run(times, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	if grow.LastShotsUsed <= flat.LastShotsUsed {
		t.Errorf("shot growth not applied: %d vs %d", grow.LastShotsUsed, flat.LastShotsUsed)
	}
}

func TestDepthBudgetFromDeviceT2(t *testing.T) {
	dev := device.Kyiv()
	o := ExecOptions{Device: dev}
	b := o.depthBudget()
	// 20% of 150µs at 560ns per CX ≈ 53.
	if b < 40 || b > 70 {
		t.Errorf("T2-derived budget = %d, want ≈53", b)
	}
	// Explicit budget wins.
	if (ExecOptions{Device: dev, DepthBudget: 7}).depthBudget() != 7 {
		t.Error("explicit budget ignored")
	}
	// No device: the paper's deployable default.
	if (ExecOptions{}).depthBudget() != 50 {
		t.Error("default budget wrong")
	}
}

// TestNewExecutorSharedStatsMatchPerOp checks that sharing one
// transpilation among the operators of equal vectors — repeated rounds of
// the pool, and an equal vector in a separate slice — gives every operator
// the same stats and CX total as transpiling it alone.
func TestNewExecutorSharedStatsMatchPerOp(t *testing.T) {
	p := problems.SCP(2, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := BuildSchedule(p, basis, ScheduleOptions{DisablePrune: true}).Ops
	ops = append(ops, Transition{U: append([]int64(nil), ops[0].U...)})
	distinct := map[string]bool{}
	for _, tr := range ops {
		distinct[vecKey(tr.U)] = true
	}
	if len(distinct) >= len(ops) {
		t.Fatalf("schedule of %d ops repeats no vector; the test needs repeats", len(ops))
	}
	e, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durations := transpile.DefaultDurations()
	wantCX := 0
	for i, tr := range ops {
		dec := transpile.Decompose(tr.OperatorCircuit(p.N, 0.5))
		want := opStats{
			oneQ:       len(dec.Gates) - dec.CountTwoQubit(),
			twoQ:       dec.CountTwoQubit(),
			cx:         dec.CountKind(quantum.GateCX),
			depth:      dec.Depth(),
			durationNS: transpile.CircuitDurationNS(dec, durations),
		}
		if e.stats[i] != want {
			t.Errorf("op %d: stats %+v, transpiled alone %+v", i, e.stats[i], want)
		}
		wantCX += want.cx
	}
	if e.TotalCX != wantCX {
		t.Errorf("TotalCX = %d, want %d", e.TotalCX, wantCX)
	}
}
