package core

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/optimize"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

func mustBasisAndSchedule(t *testing.T, p *problems.Problem) []Transition {
	t.Helper()
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return BuildSchedule(p, basis, ScheduleOptions{}).Ops
}

func TestExecutorExactRunIsDistribution(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	exec, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.7
	}
	dist, err := exec.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for x, pr := range dist {
		if pr < 0 {
			t.Errorf("negative probability %v", pr)
		}
		if !p.Feasible(x) {
			t.Errorf("infeasible state %v in exact purified run", x)
		}
		sum += pr
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestExecutorSegmentationSplits(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	one, err := NewExecutor(p, ops, ExecOptions{DisableSegmentation: true})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumSegments() != 1 {
		t.Errorf("unsegmented executor has %d segments", one.NumSegments())
	}
	per, err := NewExecutor(p, ops, ExecOptions{OpsPerSegment: 1})
	if err != nil {
		t.Fatal(err)
	}
	if per.NumSegments() != len(ops) {
		t.Errorf("per-op segmentation gave %d segments for %d ops", per.NumSegments(), len(ops))
	}
	if per.MaxSegmentDepth() >= one.MaxSegmentDepth() && len(ops) > 1 {
		t.Error("segmentation did not reduce executable depth")
	}
	auto, err := NewExecutor(p, ops, ExecOptions{DepthBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range auto.segments {
		if len(seg) > 1 && auto.SegmentDepths[i] > 50 {
			t.Errorf("multi-op segment %d exceeds the depth budget: %d", i, auto.SegmentDepths[i])
		}
	}
}

func TestExecutorSampledRun(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	exec, err := NewExecutor(p, ops, ExecOptions{Shots: 512})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	dist, err := exec.Run(times, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) == 0 {
		t.Fatal("empty sampled distribution")
	}
	if exec.LastQuantumNS <= 0 {
		t.Error("quantum latency not accounted")
	}
	if exec.LastShotsUsed == 0 {
		t.Error("shots not accounted")
	}
}

func TestExecutorNoisyRunPurifies(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	dev := device.Kyiv()
	exec, err := NewExecutor(p, ops, ExecOptions{Shots: 512, OpsPerSegment: 1, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	dist, err := exec.Run(times, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for x := range dist {
		if !p.Feasible(x) {
			t.Errorf("purification let infeasible %v through", x)
		}
	}
	if exec.LastFeasibleShots >= exec.LastMeasuredShots {
		t.Log("note: no infeasible shots this seed (possible but unusual)")
	}
}

func TestExecutorNoPurifyLeaksInfeasible(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	dev := device.Kyiv()
	exec, err := NewExecutor(p, ops, ExecOptions{Shots: 2048, OpsPerSegment: 1, Device: dev, DisablePurify: true, Trajectories: 64})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	leaked := false
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10 && !leaked; trial++ {
		dist, err := exec.Run(times, rng)
		if err != nil {
			continue
		}
		for x := range dist {
			if !p.Feasible(x) {
				leaked = true
			}
		}
	}
	if !leaked {
		t.Error("without purification, noise should eventually leak infeasible outputs")
	}
}

func TestSolveReachesOptimumSmall(t *testing.T) {
	// On small instances the exact-mode solver should land near E_opt.
	for _, label := range []string{"F1", "J1", "K1"} {
		b, err := problems.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Generate(0)
		ref, err := problems.ExactReference(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(context.Background(), p, Options{MaxIter: 200, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.BestValue != ref.Opt {
			t.Errorf("%s: best sampled %v, optimum %v", label, res.BestValue, ref.Opt)
		}
		arg := math.Abs((ref.Opt - res.Expectation) / ref.Opt)
		if arg > 0.5 {
			t.Errorf("%s: ARG %.3f too high for a small noise-free instance", label, arg)
		}
	}
}

func TestSolveResultInvariants(t *testing.T) {
	p := problems.SCP(1, 0)
	res, err := Solve(context.Background(), p, Options{MaxIter: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParams != len(res.Schedule.Ops) {
		t.Error("params != scheduled ops")
	}
	if res.NumSegments < 1 || res.SegmentDepth <= 0 {
		t.Errorf("segment accounting wrong: %d segments depth %d", res.NumSegments, res.SegmentDepth)
	}
	if res.SegmentDepth > res.UnsegmentedDepth {
		t.Error("segment depth exceeds unsegmented depth")
	}
	if !p.Feasible(res.BestSolution) {
		t.Error("best solution infeasible")
	}
	if res.InConstraintsRate != 1 {
		t.Errorf("noise-free in-constraints rate = %v", res.InConstraintsRate)
	}
	if res.Latency.TotalMS() <= 0 {
		t.Error("latency not modeled")
	}
}

func TestSolveOnNoisyDevice(t *testing.T) {
	p := problems.FLP(1, 0)
	res, err := Solve(context.Background(), p, Options{
		MaxIter: 25,
		Seed:    9,
		Exec:    ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Brisbane(), Trajectories: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(res.BestSolution) {
		t.Error("noisy solve returned infeasible best")
	}
	if res.Latency.QuantumMS <= 0 {
		t.Error("noisy solve has no quantum latency")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	p := problems.FLP(1, 1)
	a, err := Solve(context.Background(), p, Options{MaxIter: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), p, Options{MaxIter: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Expectation != b.Expectation {
		t.Error("same seed produced different expectations")
	}
}

func TestSolveWithEachOptimizer(t *testing.T) {
	p := problems.FLP(1, 2)
	ref, err := problems.ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []optimize.Method{optimize.MethodCOBYLA, optimize.MethodNelderMead, optimize.MethodPowell, optimize.MethodSPSA} {
		res, err := Solve(context.Background(), p, Options{MaxIter: 120, Seed: 4, Optimizer: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.BestValue != ref.Opt {
			t.Errorf("%s: best %v, optimum %v", m, res.BestValue, ref.Opt)
		}
	}
}

func TestSolveMaximizeProblem(t *testing.T) {
	p, err := problems.NewBuilder("maxsolve", 4).Maximize().
		Linear(0, 5).Linear(1, 4).Linear(2, 3).Linear(3, 2).
		Le(map[int]int64{0: 1, 1: 1, 2: 1, 3: 1}, 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := problems.ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, Options{MaxIter: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != ref.Opt {
		t.Errorf("maximize solve: best %v, optimum %v (want 9 = items 0+1)", res.BestValue, ref.Opt)
	}
}

func TestSolveShotGrowthOption(t *testing.T) {
	p := problems.FLP(1, 0)
	res, err := Solve(context.Background(), p, Options{
		MaxIter: 25,
		Seed:    2,
		Exec:    ExecOptions{Shots: 128, OpsPerSegment: 1, ShotGrowth: 10, MaxShotsPerSegment: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(res.BestSolution) {
		t.Error("shot-growth solve infeasible")
	}
}

// TestSolveShotGrowthPastInt64: K4's default schedule runs 18 segments,
// so 1024·10^i shots pass 2^63 at segment 16; the solve must still run
// every segment at the 65536 cap.
func TestSolveShotGrowthPastInt64(t *testing.T) {
	p := problems.KPP(4, 0)
	res, err := Solve(context.Background(), p, Options{
		MaxIter:  1,
		MaxEvals: 4,
		Seed:     3,
		Exec:     ExecOptions{Shots: 1024, ShotGrowth: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments != 18 {
		t.Fatalf("K4 ran %d segments, want 18", res.NumSegments)
	}
	if !p.Feasible(res.BestSolution) {
		t.Error("shot-growth solve infeasible")
	}
}

// TestSolveFallsBackToWinningStartDistribution pins a sampled solve whose
// final evaluation fails: F1 case 0 on kyiv with 4 shots per segment and
// seed 12 loses every final shot to purification. The result must carry
// the winning start's last successful distribution, recomputed here by
// replaying that start's optimizer on a fresh executor clone.
func TestSolveFallsBackToWinningStartDistribution(t *testing.T) {
	ctx := context.Background()
	p := problems.FLP(1, 0)
	// MaxIter 9 runs one start, at π/4 everywhere, on stream 0 of the
	// seed; the final evaluation draws from stream 1.
	opts := Options{MaxIter: 9, Seed: 12, Exec: ExecOptions{Shots: 4, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 1}}
	res, err := Solve(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(p, res.Schedule.Ops, opts.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.RunCtx(ctx, res.Times, parallel.NewRand(opts.Seed+7, 1)); err == nil {
		t.Fatal("the pinned final evaluation succeeds; the test no longer covers the fallback")
	}

	ex := exec.Clone()
	rng := parallel.NewRand(opts.Seed+7, 0)
	objective := func(x []float64) float64 {
		e, err := ex.RunEnergyCtx(ctx, x, rng)
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	replay := optimize.Minimize(opts.Optimizer, objective, constVec(ex.NumParams(), math.Pi/4),
		optimize.Options{MaxIter: opts.MaxIter, Step: math.Pi / 8, Seed: opts.Seed, Ctx: ctx})
	if !slices.Equal(replay.X, res.Times) {
		t.Fatalf("the replayed start ends at %v, the solve at %v", replay.X, res.Times)
	}
	want := ex.LastDistribution()
	if len(want) == 0 || !maps.Equal(res.Distribution, want) {
		t.Fatalf("result distribution %v, want the winning start's last %v", res.Distribution, want)
	}
}

// TestStartRandsReseedMatchesFresh: a pooled source reseeded for a solve
// draws exactly what a fresh rand.NewSource(seed) draws, whatever the
// pooled source drew before, so the random start stays bit-identical.
func TestStartRandsReseedMatchesFresh(t *testing.T) {
	for seed := int64(-500); seed < 1500; seed++ {
		pooled := startRands.Get().(*rand.Rand)
		pooled.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for d := 0; d < 40; d++ {
			if a, b := pooled.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d draw %d: pooled %v, fresh %v", seed, d, a, b)
			}
		}
		startRands.Put(pooled)
	}
}
