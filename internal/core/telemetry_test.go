package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/store"
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

// TestSolveSpansBoundedByIterations: a traced solve records a constant
// number of spans per optimizer iteration, however many evaluations and
// segments each iteration runs — the executor flushes its segment and
// sample time once per iteration instead of recording spans per segment.
func TestSolveSpansBoundedByIterations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       *problems.Problem
		maxIter int
		exec    ExecOptions
	}{
		{"F3", problems.FLP(3, 0), 100, ExecOptions{}},
		{"K3", problems.KPP(3, 0), 100, ExecOptions{}},
		{"S3", problems.SCP(3, 0), 100, ExecOptions{}},
		{"G3", problems.GCP(3, 0), 100, ExecOptions{}},
		{"F2 sampled", problems.FLP(2, 0), 60, ExecOptions{Shots: 256}},
		{"F1 noisy", problems.FLP(1, 0), 40, ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			_, err := Solve(context.Background(), tc.p, Options{
				MaxIter:   tc.maxIter,
				Seed:      1,
				Exec:      tc.exec,
				Telemetry: TelemetryOptions{Spans: rec, Convergence: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			byStage := map[string]int{}
			for _, s := range rec.Spans() {
				byStage[s.Name]++
			}
			iters := byStage[obs.StageIteration]
			if iters < 10 {
				t.Fatalf("only %d iteration spans: %v", iters, byStage)
			}
			if n := rec.Len(); n > 4*iters {
				t.Errorf("%d spans for %d iterations, want at most %d: %v", n, iters, 4*iters, byStage)
			}
			if byStage[obs.StageSegment] == 0 || byStage[obs.StageSample] == 0 {
				t.Errorf("no segment or sample spans: %v", byStage)
			}
		})
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

// Overhead benchmarks: a plain solve against a served-style one, which
// records stage spans, convergence and live progress the way the solve
// service does for every solve it executes, and against a checkpointed
// one, which writes a checkpoint at every optimizer iteration through
// the slot writer rasengan-solve uses behind -checkpoint. The disabled
// paths cost nil checks only; the served path pays a few clock reads per
// evaluation and three spans per optimizer iteration.

type benchMode int

const (
	benchPlain benchMode = iota
	benchServed
	benchCheckpointed
)

func benchSolve(b *testing.B, p *problems.Problem, mode benchMode) {
	var ckpt *store.CheckpointWriter
	if mode == benchCheckpointed {
		var err error
		if ckpt, err = store.OpenCheckpointWriter(filepath.Join(b.TempDir(), "solve.ckpt")); err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := ckpt.Close(); err != nil {
				b.Error(err)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Seed: 1}
		switch mode {
		case benchServed:
			opts.Telemetry = TelemetryOptions{Spans: obs.NewRecorder(), Convergence: true, Progress: obs.NewProgressCell()}
		case benchCheckpointed:
			opts.Checkpoint = &CheckpointOptions{Every: 1, Write: ckpt.Write}
		}
		if _, err := Solve(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePlainF3(b *testing.B)        { benchSolve(b, problems.FLP(3, 0), benchPlain) }
func BenchmarkSolveServedF3(b *testing.B)       { benchSolve(b, problems.FLP(3, 0), benchServed) }
func BenchmarkSolveCheckpointedF3(b *testing.B) { benchSolve(b, problems.FLP(3, 0), benchCheckpointed) }
func BenchmarkSolvePlainK3(b *testing.B)        { benchSolve(b, problems.KPP(3, 0), benchPlain) }
func BenchmarkSolveServedK3(b *testing.B)       { benchSolve(b, problems.KPP(3, 0), benchServed) }
func BenchmarkSolveCheckpointedK3(b *testing.B) { benchSolve(b, problems.KPP(3, 0), benchCheckpointed) }
func BenchmarkSolvePlainS3(b *testing.B)        { benchSolve(b, problems.SCP(3, 0), benchPlain) }
func BenchmarkSolveServedS3(b *testing.B)       { benchSolve(b, problems.SCP(3, 0), benchServed) }
func BenchmarkSolveCheckpointedS3(b *testing.B) { benchSolve(b, problems.SCP(3, 0), benchCheckpointed) }
func BenchmarkSolvePlainG3(b *testing.B)        { benchSolve(b, problems.GCP(3, 0), benchPlain) }
func BenchmarkSolveServedG3(b *testing.B)       { benchSolve(b, problems.GCP(3, 0), benchServed) }
func BenchmarkSolveCheckpointedG3(b *testing.B) { benchSolve(b, problems.GCP(3, 0), benchCheckpointed) }

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
