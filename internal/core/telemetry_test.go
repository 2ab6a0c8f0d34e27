package core

import (
	"context"
	"math"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// TestSolveTelemetrySpanCoverage is the acceptance check for the span
// instrumentation: one solve must produce spans for every pipeline stage
// and aggregate them into Latency.Stages.
func TestSolveTelemetrySpanCoverage(t *testing.T) {
	p := problems.FLP(1, 0)
	rec := obs.NewRecorder()
	res, err := Solve(context.Background(), p, Options{
		MaxIter: 30,
		Seed:    3,
		Telemetry: TelemetryOptions{
			Spans:       rec,
			Convergence: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := rec.StageTotals()
	for _, stage := range []string{
		obs.StageSolve, obs.StageBasis, obs.StageHamiltonian, obs.StageCircuit,
		obs.StageIteration, obs.StageSegment, obs.StageSample, obs.StageFinalEval,
	} {
		if _, ok := totals[stage]; !ok {
			t.Errorf("no span recorded for stage %q (have %v)", stage, totals)
		}
	}
	if len(res.Latency.Stages) < 4 {
		t.Errorf("Latency.Stages has %d entries, want >= 4: %v", len(res.Latency.Stages), res.Latency.Stages)
	}
	for stage, ms := range res.Latency.Stages {
		if ms < 0 {
			t.Errorf("stage %q has negative duration %v", stage, ms)
		}
	}
	if len(res.Convergence) == 0 {
		t.Fatal("no convergence records captured")
	}
	prev := -1
	for _, it := range res.Convergence {
		if it.Iter <= prev {
			t.Errorf("convergence iterations not strictly increasing: %d after %d", it.Iter, prev)
		}
		prev = it.Iter
		if !math.IsNaN(it.ARG) {
			t.Errorf("ARG should be NaN when no optimum is supplied, got %v", it.ARG)
		}
		if it.ParamNorm < 0 {
			t.Errorf("negative parameter norm %v", it.ParamNorm)
		}
	}
	// A shared recorder scoped to another solve's tracks must see nothing
	// from this one.
	if other := rec.StageTotals(rec.Track("unused")); len(other) != 0 {
		t.Errorf("track-scoped totals leaked spans: %v", other)
	}
}

// TestSolveTelemetryARG checks the running approximation-ratio gap is
// populated (and converging toward the truth) when the optimum is known.
func TestSolveTelemetryARG(t *testing.T) {
	p := problems.FLP(1, 0)
	ref, err := problems.ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, Options{
		MaxIter: 30,
		Seed:    3,
		Telemetry: TelemetryOptions{
			Convergence: true,
			EOpt:        ref.Opt,
			EOptKnown:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 {
		t.Fatal("no convergence records captured")
	}
	for _, it := range res.Convergence {
		if math.IsNaN(it.ARG) || it.ARG < 0 {
			t.Errorf("iter %d: ARG = %v, want finite non-negative", it.Iter, it.ARG)
		}
	}
}

// TestSolveTelemetryDoesNotPerturbResult locks in the observes-never-
// steers contract: a solve with full telemetry is bit-identical to the
// same solve without it.
func TestSolveTelemetryDoesNotPerturbResult(t *testing.T) {
	p := problems.FLP(1, 0)
	opts := Options{
		MaxIter: 40,
		Seed:    17,
		Exec:    ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 4},
	}
	base, err := Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = TelemetryOptions{Spans: obs.NewRecorder(), Convergence: true}
	traced, err := Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Expectation != traced.Expectation || base.BestValue != traced.BestValue ||
		base.BestSolution != traced.BestSolution || base.Evals != traced.Evals {
		t.Errorf("telemetry changed the solve: %+v vs %+v", base, traced)
	}
	for i := range base.Times {
		if base.Times[i] != traced.Times[i] {
			t.Errorf("telemetry changed time[%d]: %v vs %v", i, base.Times[i], traced.Times[i])
		}
	}
	for x, pr := range base.Distribution {
		if traced.Distribution[x] != pr {
			t.Errorf("telemetry changed P(%v): %v vs %v", x, traced.Distribution[x], pr)
		}
	}
}

// TestSolveTelemetryDeterministicAcrossWorkers extends the worker-count
// determinism guarantee to telemetry-enabled solves: results and the
// deterministic half of the convergence trace must match at any pool
// size.
func TestSolveTelemetryDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	p := problems.FLP(1, 0)
	run := func(workers int) *Result {
		parallel.SetWorkers(workers)
		res, err := Solve(context.Background(), p, Options{
			MaxIter:   40,
			Seed:      17,
			Exec:      ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 4},
			Telemetry: TelemetryOptions{Spans: obs.NewRecorder(), Convergence: true},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{8} {
		got := run(w)
		if got.Expectation != ref.Expectation || got.BestValue != ref.BestValue {
			t.Errorf("workers=%d: (%v, %v) != (%v, %v)",
				w, got.Expectation, got.BestValue, ref.Expectation, ref.BestValue)
		}
		if len(got.Convergence) != len(ref.Convergence) {
			t.Fatalf("workers=%d: %d convergence records != %d",
				w, len(got.Convergence), len(ref.Convergence))
		}
		for i := range ref.Convergence {
			a, b := ref.Convergence[i], got.Convergence[i]
			// ElapsedMS is wall time and legitimately differs; everything
			// else is deterministic.
			if a.Start != b.Start || a.Iter != b.Iter || a.BestEnergy != b.BestEnergy ||
				a.ParamNorm != b.ParamNorm {
				t.Errorf("workers=%d: convergence[%d] %+v != %+v", w, i, b, a)
			}
		}
	}
}

// TestTelemetryExcludedFromFingerprint guards the cache key: two solves
// that differ only in telemetry must hash identically.
func TestTelemetryExcludedFromFingerprint(t *testing.T) {
	plain := Options{MaxIter: 50, Seed: 3}
	traced := plain
	traced.Telemetry = TelemetryOptions{
		Spans: obs.NewRecorder(), Convergence: true, EOpt: -4, EOptKnown: true,
	}
	if OptionsFingerprint(plain) != OptionsFingerprint(traced) {
		t.Error("telemetry options leaked into the canonical fingerprint")
	}
}

// Telemetry overhead benchmarks: the disabled path must stay within noise
// of the pre-telemetry solver (nil-receiver checks only), and the enabled
// path quantifies the recording cost.

func BenchmarkSolveTelemetryOff(b *testing.B) {
	p := problems.FLP(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{MaxIter: 60, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveTelemetryOn(b *testing.B) {
	p := problems.FLP(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{
			MaxIter:   60,
			Seed:      int64(i),
			Telemetry: TelemetryOptions{Spans: obs.NewRecorder(), Convergence: true},
		}
		if _, err := Solve(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveProgressMatchesConvergence runs a single-start solve with both
// the convergence trace and a live-progress cell on. Both are fed from one
// record per iteration, so the cell ends on exactly the trace's last
// record and has counted every one of them.
func TestSolveProgressMatchesConvergence(t *testing.T) {
	cell := obs.NewProgressCell()
	res, err := Solve(context.Background(), problems.FLP(1, 0), Options{
		MaxIter: 20, // below 30: one start
		Seed:    4,
		Telemetry: TelemetryOptions{
			Convergence: true,
			Progress:    cell,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 {
		t.Fatal("no convergence records")
	}
	p, _, ok := cell.Load()
	if !ok {
		t.Fatal("progress cell never published")
	}
	last := res.Convergence[len(res.Convergence)-1]
	if p.Iteration != len(res.Convergence) {
		t.Errorf("cell counted %d iterations, trace has %d records", p.Iteration, len(res.Convergence))
	}
	if p.Start != last.Start || p.Iter != last.Iter || p.BestEnergy != last.BestEnergy ||
		p.ParamNorm != last.ParamNorm || p.ElapsedMS != last.ElapsedMS {
		t.Errorf("cell ends on %+v, last trace record is %+v", p, last)
	}
}
