package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/problems"
	"rasengan/internal/quantum"
)

// Micro-benchmarks for the pipeline stages. Run with:
// go test -bench=. -benchmem ./internal/core/

func BenchmarkBuildBasisFLP(b *testing.B) {
	p := problems.FLP(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBasis(p, BasisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildBasisGCPSearch(b *testing.B) {
	// The ternary-search path (non-ternary rational basis).
	p := problems.GCP(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBasis(p, BasisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSchedule(b *testing.B) {
	p := problems.SCP(3, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSchedule(p, basis, ScheduleOptions{})
	}
}

func BenchmarkExecutorExactRun(b *testing.B) {
	p := problems.FLP(2, 0)
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{})
	exec, err := NewExecutor(p, sched.Ops, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Moving the first time makes every segment recompute.
		times[0] = 0.6 + 0.01*float64(i%2)
		if _, err := exec.Run(times, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveF1(b *testing.B) {
	p := problems.FLP(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{MaxIter: 60, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperatorCircuitEmission(b *testing.B) {
	u := make([]int64, 24)
	u[1], u[7], u[13], u[19] = 1, -1, 1, -1
	tr := Transition{U: u}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.OperatorCircuit(24, 0.5)
	}
}

// benchOptimizerIter measures one optimizer objective evaluation — a full
// RunEnergy over the instance's schedule, each call moving the first time
// so that every segment recomputes — under the given
// engine. This is the loop body the compiled engine exists to accelerate;
// BENCH_PR6.json records map-vs-compiled ratios on the medium cells below.
func benchOptimizerIter(b *testing.B, p *problems.Problem, engine string) {
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sched := BuildSchedule(p, basis, ScheduleOptions{})
	exec, err := NewExecutor(p, sched.Ops, ExecOptions{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	if exec.EngineUsed != engine {
		b.Fatalf("engine %q fell back to %q: %s", engine, exec.EngineUsed, exec.EngineFallbackReason)
	}
	times := make([]float64, exec.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		times[0] = 0.55 + 0.01*float64(i%2)
		if _, err := exec.RunEnergyCtx(ctx, times, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerIterMapFLP3(b *testing.B) {
	benchOptimizerIter(b, problems.FLP(3, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledFLP3(b *testing.B) {
	benchOptimizerIter(b, problems.FLP(3, 0), EngineCompiled)
}

func BenchmarkOptimizerIterMapSCP4(b *testing.B) {
	benchOptimizerIter(b, problems.SCP(4, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledSCP4(b *testing.B) {
	benchOptimizerIter(b, problems.SCP(4, 0), EngineCompiled)
}

func BenchmarkOptimizerIterMapKPP3(b *testing.B) {
	benchOptimizerIter(b, problems.KPP(3, 0), EngineMap)
}

func BenchmarkOptimizerIterCompiledKPP3(b *testing.B) {
	benchOptimizerIter(b, problems.KPP(3, 0), EngineCompiled)
}

// benchCoordinateSweep measures exact evaluations in COBYLA's simplex
// pattern: a base point, then the base with one time moved per call, in
// order, so each call differs from the one before at two positions and
// restarts at the segment of the first.
func benchCoordinateSweep(b *testing.B, p *problems.Problem) {
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := NewExecutor(p, BuildSchedule(p, basis, ScheduleOptions{}).Ops, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	n := exec.NumParams()
	base := make([]float64, n)
	for i := range base {
		base[i] = math.Pi / 4
	}
	times := make([]float64, n)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(times, base)
		if k := i % (n + 1); k > 0 {
			times[k-1] += math.Pi / 8
		}
		if _, err := exec.RunEnergyCtx(ctx, times, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinateSweepF4(b *testing.B) { benchCoordinateSweep(b, problems.FLP(4, 0)) }

func BenchmarkCoordinateSweepS4(b *testing.B) { benchCoordinateSweep(b, problems.SCP(4, 0)) }

// benchCompile measures the one-shot compile of one solve — BuildBasis,
// BuildSchedule and NewExecutor with default options — which the solver
// pays before its first optimizer iteration.
func benchCompile(b *testing.B, p *problems.Problem) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		basis, err := BuildBasis(p, BasisOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sched := BuildSchedule(p, basis, ScheduleOptions{})
		if _, err := NewExecutor(p, sched.Ops, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileF4(b *testing.B) { benchCompile(b, problems.FLP(4, 0)) }

func BenchmarkCompileS4(b *testing.B) { benchCompile(b, problems.SCP(4, 0)) }

func BenchmarkCompileG4(b *testing.B) { benchCompile(b, problems.GCP(4, 0)) }

func BenchmarkCompileK4(b *testing.B) { benchCompile(b, problems.KPP(4, 0)) }

// BenchmarkSimplifyUnion{F4,S4,K4} measure BuildBasis's second Simplify
// call as BuildBasis makes it: the union pool's sparse pairs, then the
// pool re-simplified against them, which runs several passes.
func benchSimplifyUnion(b *testing.B, p *problems.Problem) {
	_, _, union := unionSimplifyInput(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simplifyWith(union, enrichSparsePairs(union, 8, 4*len(union)+16))
	}
}

func BenchmarkSimplifyUnionF4(b *testing.B) { benchSimplifyUnion(b, problems.FLP(4, 0)) }

func BenchmarkSimplifyUnionS4(b *testing.B) { benchSimplifyUnion(b, problems.SCP(4, 0)) }

func BenchmarkSimplifyUnionK4(b *testing.B) { benchSimplifyUnion(b, problems.KPP(4, 0)) }

// BenchmarkTernaryLadderG4 measures the one-pass support ladder of
// BuildBasis's search fallback on G4, with its default bounds and caps:
// the pass, and the list of its top level.
func BenchmarkTernaryLadderG4(b *testing.B) {
	p := problems.GCP(4, 0)
	hi := maxSupportDefault(p.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchLadder(p.C, 2, hi, 0, 2048).list(hi)
	}
}

// benchCompileSpace measures the compiled engine's subspace compile over a
// default schedule: the closure of the seed and the partner tables.
func benchCompileSpace(b *testing.B, p *problems.Problem) {
	basis, err := BuildBasis(p, BasisOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ops := BuildSchedule(p, basis, ScheduleOptions{}).Ops
	us := make([][]int64, len(ops))
	for i := range ops {
		us[i] = ops[i].U
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := quantum.CompileSpace(p.Init, us, 0); !ok {
			b.Fatal("compile failed")
		}
	}
}

func BenchmarkCompileSpaceF4(b *testing.B) { benchCompileSpace(b, problems.FLP(4, 0)) }

func BenchmarkCompileSpaceS4(b *testing.B) { benchCompileSpace(b, problems.SCP(4, 0)) }

func BenchmarkCompileSpaceG4(b *testing.B) { benchCompileSpace(b, problems.GCP(4, 0)) }

func BenchmarkCompileSpaceK4(b *testing.B) { benchCompileSpace(b, problems.KPP(4, 0)) }
