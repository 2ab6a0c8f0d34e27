package verify

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"rasengan/internal/core"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// TestCompiledEngineAcrossFamilies is the property test of the engine
// contract, driven by the same generators the verification oracle uses:
// over every benchmark family, the compiled engine must reproduce the map
// engine's amplitudes, its sampled executor distributions, and — through a
// full solve — the deterministic wire payload, byte for byte.
func TestCompiledEngineAcrossFamilies(t *testing.T) {
	for fi, fam := range problems.Families {
		b := problems.Benchmark{Family: fam, Scale: 1}
		p := b.Generate(fi)
		basis, err := core.BuildBasis(p, core.BasisOptions{})
		if err != nil {
			t.Fatalf("%s: BuildBasis: %v", fam, err)
		}
		ops := core.BuildSchedule(p, basis, core.ScheduleOptions{}).Ops
		if len(ops) > maxOracleOps {
			ops = ops[:maxOracleOps]
		}
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		times := make([]float64, len(ops))
		for i := range times {
			times[i] = 0.05 + rng.Float64()*3.0
		}

		// Amplitude identity through the oracle rung's own machinery.
		cr := &caseRunner{cfg: Config{}.withDefaults(), tc: &testCase{name: fam, p: p}, rng: rng}
		sp := evolveSparse(p.Init, ops, times)
		cr.compiledDiffCheck(sp, ops, times)
		cr.engineEquivalenceCheck(ops, times)
		for _, c := range cr.report.Checks {
			if !c.OK {
				t.Fatalf("%s: %s failed: %s", fam, c.Name, c.Detail)
			}
		}

		// Sampled executor path: same seed, identical distributions.
		for _, engines := range [][2]string{{core.EngineMap, core.EngineCompiled}} {
			var dists [2]map[string]float64
			for k, eng := range engines {
				ex, err := core.NewExecutor(p, ops, core.ExecOptions{Engine: eng, Shots: 512})
				if err != nil {
					t.Fatalf("%s/%s: NewExecutor: %v", fam, eng, err)
				}
				d, err := ex.Run(times, rand.New(rand.NewSource(7)))
				if err != nil {
					t.Fatalf("%s/%s: sampled run: %v", fam, eng, err)
				}
				dists[k] = map[string]float64{}
				for x, v := range d {
					dists[k][x.String()] = v
				}
			}
			if len(dists[0]) != len(dists[1]) {
				t.Fatalf("%s: sampled support %d (map) vs %d (compiled)", fam, len(dists[0]), len(dists[1]))
			}
			for x, v := range dists[0] {
				if dists[1][x] != v {
					t.Fatalf("%s: sampled dist at %s: map %v vs compiled %v", fam, x, v, dists[1][x])
				}
			}
		}

		// Solve-level payload identity, including workers=1 vs N on the
		// compiled engine.
		payload := func(engine string, workers int) []byte {
			prev := parallel.Workers()
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			opts := core.Options{MaxIter: 12, Seed: 3}
			opts.Exec.Engine = engine
			res, err := core.Solve(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s/%s: solve: %v", fam, engine, err)
			}
			pay, err := service.MarshalResultPayload(p, res)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", fam, engine, err)
			}
			return pay
		}
		payMap := payload(core.EngineMap, 1)
		payComp1 := payload(core.EngineCompiled, 1)
		payCompN := payload(core.EngineCompiled, 8)
		if !bytes.Equal(payMap, payComp1) {
			t.Fatalf("%s: map and compiled solve payloads differ", fam)
		}
		if !bytes.Equal(payComp1, payCompN) {
			t.Fatalf("%s: compiled payload differs between workers=1 and workers=8", fam)
		}
	}
}

// TestCompiledEngineCancellationMidIteration cancels a solve from inside an
// objective evaluation on both engines: each must stop promptly with
// context.Canceled and no result — the compiled fast path must not skip
// the cooperative cancellation points.
func TestCompiledEngineCancellationMidIteration(t *testing.T) {
	p := problems.Benchmark{Family: problems.Families[0], Scale: 1}.Generate(0)
	for _, engine := range []string{core.EngineMap, core.EngineCompiled} {
		ctx, cancel := context.WithCancel(context.Background())
		// The starts evaluate concurrently, so the count is atomic.
		var evals atomic.Int64
		core.SetFaultHook(func(stage string) {
			if stage == core.FaultIteration && evals.Add(1) == 5 {
				cancel()
			}
		})
		opts := core.Options{MaxIter: 500, Seed: 1}
		opts.Exec.Engine = engine
		res, err := core.Solve(ctx, p, opts)
		core.SetFaultHook(nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", engine, err)
		}
		if res != nil {
			t.Fatalf("%s: cancelled solve returned a result", engine)
		}
	}
}

// TestInjectedFaultTripsCompiledRung proves the new rung can actually fail:
// with fault injection on, the compiled-engine amplitude check must detect
// the corrupted sparse reference.
func TestInjectedFaultTripsCompiledRung(t *testing.T) {
	p := problems.Benchmark{Family: problems.Families[0], Scale: 1}.Generate(1)
	basis, err := core.BuildBasis(p, core.BasisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := core.BuildSchedule(p, basis, core.ScheduleOptions{}).Ops
	rng := rand.New(rand.NewSource(17))
	times := make([]float64, len(ops))
	for i := range times {
		times[i] = 0.4 + rng.Float64()
	}
	cr := &caseRunner{
		cfg: Config{InjectAmplitudeFault: true}.withDefaults(),
		tc:  &testCase{name: "fault", p: p},
		rng: rng,
	}
	sp := evolveSparse(p.Init, ops, times)
	cr.compiledDiffCheck(sp, ops, times)
	if !cr.faultInjected {
		t.Fatal("fault was not injected")
	}
	tripped := false
	for _, c := range cr.report.Checks {
		if c.Name == "compiled_engine_amplitude" && !c.OK {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("injected amplitude fault did not trip the compiled-engine rung")
	}
}
