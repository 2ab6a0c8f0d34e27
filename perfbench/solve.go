package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rasengan"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/service"
)

// solveMix describes the library workload: a closed loop with one caller
// over four generator instances, each solved under a fixed pool of solver
// seeds. The workload seed orders the requests; the pool does not depend
// on it, so every seed solves the same keys and quality and payload
// references compare like with like.
type solveMix struct {
	name   string
	labels []string
	// seedPool is how many solver seeds each instance cycles through. A
	// run covers the cycle several times, so every seed measures nearly
	// the same set of solves.
	seedPool int
	// window is how many consecutive solves make one measurement window of
	// the rate metrics; a multiple of the instance count, so each window
	// holds the same cost mix.
	window int
}

var exactMix = solveMix{name: "solve-exact", labels: []string{"F4", "S4", "G4", "K4"},
	seedPool: 16, window: 200}

func runSolveExact(e *env, c *checker) (*outcome, error) { return runSolve(e, c, exactMix) }

// instance is one benchmark cell with its golden optimum.
type instance struct {
	label string
	spec  *problems.Spec
	p     *problems.Problem
	eOpt  float64
}

type goldenCell struct {
	Label    string  `json:"label"`
	Case     int     `json:"case"`
	EOpt     float64 `json:"e_opt"`
	SpecHash string  `json:"spec_hash"`
}

// loadInstances builds case 0 of each labelled cell and pairs it with
// the golden optimum committed in internal/problems/testdata. A spec
// hash that no longer matches the golden file means the generator
// changed, and the ARG figures would compare different problems.
func loadInstances(root string, labels []string) ([]*instance, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "problems", "testdata", "golden_references.json"))
	if err != nil {
		return nil, err
	}
	var cells []goldenCell
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, fmt.Errorf("golden references: %w", err)
	}
	out := make([]*instance, 0, len(labels))
	for _, label := range labels {
		b, err := problems.ByLabel(label)
		if err != nil {
			return nil, err
		}
		spec := problems.SpecFor(b, 0)
		hash, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		var cell *goldenCell
		for i := range cells {
			if cells[i].Label == label && cells[i].Case == 0 {
				cell = &cells[i]
			}
		}
		if cell == nil || cell.SpecHash != hash {
			return nil, fmt.Errorf("%s: no golden reference for spec hash %s", label, hash)
		}
		p, err := spec.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, &instance{label: label, spec: spec, p: p, eOpt: cell.EOpt})
	}
	return out, nil
}

// solveReq is one request of the library loop.
type solveReq struct {
	key  string // "<label>/seed=<solver seed>", the payload check key
	inst *instance
	opts core.Options
}

// solveRequests returns the request cycle of a workload seed: blocks of
// one request per instance, instances and pool seeds in seeded orders.
// Every block holds each instance once, so any stretch of the cycle has
// the same cost mix.
func solveRequests(m solveMix, insts []*instance, seed int64) []solveReq {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(insts))
	reqs := make([]solveReq, 0, len(insts)*m.seedPool)
	for _, j := range rng.Perm(m.seedPool) {
		for _, i := range order {
			s := poolSeed(uint64(i), uint64(j))
			reqs = append(reqs, solveReq{key: insts[i].label + "/seed=" + strconv.FormatInt(s, 10), inst: insts[i], opts: core.Options{Seed: s}})
		}
	}
	return reqs
}

// compileAll runs the compile half of a solve (basis, schedule, executor)
// for every instance: the set-up a library user pays before solving.
func compileAll(insts []*instance, opts core.Options) ([]*core.Executor, error) {
	execs := make([]*core.Executor, len(insts))
	for i, in := range insts {
		basis, err := core.BuildBasis(in.p, opts.Basis)
		if err != nil {
			return nil, err
		}
		sched := core.BuildSchedule(in.p, basis, opts.Schedule)
		if execs[i], err = core.NewExecutor(in.p, sched.Ops, opts.Exec); err != nil {
			return nil, err
		}
	}
	return execs, nil
}

// solveRun is the state of one library workload run.
type solveRun struct {
	m    solveMix
	c    *checker
	reqs []solveReq
	next int // position in the request cycle
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	phase
	windows      []phase // consecutive windows of m.window solves
	lat, args    []float64
	latBy        map[string][]float64     // solve latencies per instance
	stages       map[string]time.Duration // traced phases only
	iters, evals int
	attempted    int // solves started; phase.ops counts those that succeeded
}

// loop solves requests with one caller for span, and on (up to twice
// span) until minSolves have completed, so that a slow machine still
// leaves a percentile its samples. With traced set, each solve records
// stage spans; workers, when non-nil, caps solve width.
func (r *solveRun) loop(span time.Duration, minSolves int, traced bool, workers parallel.Limiter) loopStats {
	ls := loopStats{stages: map[string]time.Duration{}, latBy: map[string][]float64{}}
	ls.start = sampleUsage()
	deadline, limit := ls.start.wall.Add(span), ls.start.wall.Add(2*span)
	win := phase{ops: r.m.window, start: ls.start}
	for now := time.Now(); now.Before(deadline) || (ls.ops < minSolves && now.Before(limit)); now = time.Now() {
		req := r.reqs[r.next%len(r.reqs)]
		r.next++
		opts := req.opts
		opts.Workers = workers
		var rec *obs.Recorder
		if traced {
			rec = rasengan.NewTraceRecorder()
			opts.Telemetry.Spans = rec
		}
		ls.attempted++
		t0 := time.Now()
		res, err := rasengan.SolveContext(context.Background(), req.inst.p, opts)
		d := time.Since(t0)
		if err != nil {
			r.c.fail("%s: %v", req.key, err)
			continue
		}
		ls.ops++
		ls.lat = append(ls.lat, ms(d))
		ls.latBy[req.inst.label] = append(ls.latBy[req.inst.label], ms(d))
		ls.args = append(ls.args, rasengan.ARG(req.inst.eOpt, res.Expectation))
		ls.iters += res.Iterations
		ls.evals += res.Evals
		for stage, t := range rec.StageTotals() {
			ls.stages[stage] += t
		}
		r.record(req, res)
		if ls.ops%r.m.window == 0 {
			win.end = sampleUsage()
			ls.windows = append(ls.windows, win)
			win.start = win.end
		}
	}
	ls.end = sampleUsage()
	return ls
}

// record checks a solve's payload.
func (r *solveRun) record(req solveReq, res *core.Result) {
	payload, err := service.MarshalResultPayload(req.inst.p, res)
	if err != nil {
		r.c.fail("%s: marshal: %v", req.key, err)
		return
	}
	r.c.check(req.key, payload)
}

func runSolve(e *env, c *checker, m solveMix) (*outcome, error) {
	o := newOutcome()
	var insts []*instance
	var execs []*core.Executor
	// Set-up: load and compile every instance. It is short, so it is
	// repeated and the median reported; the first, untimed round warms
	// the process, and a collection before each round starts it from the
	// same heap.
	var setups []float64
	for i := 0; i <= setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if insts, err = loadInstances(e.root, m.labels); err != nil {
			return nil, err
		}
		if execs, err = compileAll(insts, core.Options{}); err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	o.metrics["setup_s"] = median(setups)
	o.record["setup_reps"] = len(setups)

	r := &solveRun{m: m, c: c, reqs: solveRequests(m, insts, e.seed)}
	// Warm-up: one solve per instance, so lazy pool start-up and first-use
	// allocations land outside the measured phase.
	for _, req := range r.reqs[:len(insts)] {
		res, err := rasengan.SolveContext(context.Background(), req.inst.p, req.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", req.key, err)
		}
		r.record(req, res)
	}
	r.next = 0

	if !e.trace {
		ls := r.loop(e.seconds, solveWindow, false, nil)
		o.attempted = ls.attempted
		o.setResources(ls.phase, ls.windows)
		// Every end-to-end metric is reported on every workload. The
		// library's one request class is the solve, so the latency is a
		// solve's: the mean over instances of each one's median, since a
		// median over all four would sit between two instances' costs.
		var p50s []float64
		for _, in := range insts {
			name := "solve_latency_p50_ms." + in.label
			o.recordTail(name, ls.latBy[in.label], 0.50, solveWindow)
			p50s = append(p50s, o.record[name].(float64))
		}
		o.metrics["latency_p50_ms"] = mean(p50s)
		o.record["latency_class"] = "library solve, mean of per-instance medians"
		o.recordTail("solve_latency_p90_ms", ls.lat, 0.90, solveWindow)
		o.metrics["arg_mean"] = mean(ls.args)
		o.record["solves"] = ls.ops
		return o, nil
	}

	// Traced run: an untraced phase, a traced phase and a one-worker
	// phase of equal length, then the kernel rung.
	quarter := e.seconds / 4
	base := r.loop(quarter, 0, false, nil)
	traced := r.loop(quarter, 0, true, nil)
	single := r.loop(quarter, 0, false, parallel.Fixed(1))
	o.attempted = base.attempted + traced.attempted + single.attempted
	n := float64(max(traced.ops, 1))
	st := func(name string) float64 { return float64(traced.stages[name]) / 1e6 }
	compile := st(obs.StageBasis) + st(obs.StageHamiltonian) + st(obs.StageCircuit)
	o.metrics["core.basis_ms_per_solve"] = st(obs.StageBasis) / n
	o.metrics["core.schedule_ms_per_solve"] = st(obs.StageHamiltonian) / n
	o.metrics["core.executor_build_ms_per_solve"] = st(obs.StageCircuit) / n
	o.metrics["core.compile_share"] = compile / st(obs.StageSolve)
	o.metrics["core.iteration_ms_per_solve"] = st(obs.StageIteration) / n
	o.metrics["core.eval_us_mean"] = st(obs.StageIteration) * 1000 / float64(max(traced.evals, 1))
	o.metrics["core.final_eval_ms_per_solve"] = st(obs.StageFinalEval) / n
	o.metrics["optimize.iterations_per_solve"] = float64(traced.iters) / n
	o.metrics["optimize.evals_per_solve"] = float64(traced.evals) / n
	o.metrics["quantum.segment_ms_per_solve"] = st(obs.StageSegment) / n
	o.metrics["quantum.sample_ms_per_solve"] = st(obs.StageSample) / n
	var states, pairs float64
	for _, ex := range execs {
		s, _, p := ex.CompiledSpaceStats()
		states += float64(s)
		pairs += float64(p)
	}
	k := float64(len(execs))
	o.metrics["quantum.compiled_states"] = states / k
	o.metrics["quantum.compiled_pairs"] = pairs / k
	// Computed, not measured: one sweep of every distinct operator reads
	// and writes both amplitudes of each pair (4 × 16 B) and reads the
	// partner index (4 B).
	o.metrics["quantum.sweep_bytes_computed"] = pairs / k * 68
	ns, err := sweepNSPerState(insts)
	if err != nil {
		return nil, err
	}
	o.metrics["quantum.sweep_ns_per_state"] = ns
	o.metrics["parallel.cpu_utilization"] = base.utilization()
	o.metrics["parallel.speedup_vs_1_worker"] = base.perSecond() / single.perSecond()
	o.setRuntime(traced.phase)
	o.metrics["obs.tracing_overhead_pct"] = overhead(base.phase, traced.phase)
	o.record["solves_traced"] = traced.ops
	o.zeroLayers()
	return o, nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Either workload's set-up takes 15–30 ms on a 2-vCPU machine,
// where single timings of one build range over ±30% with outside load;
// 101 rounds span a few seconds, so a burst of load moves the median
// little.
const setupReps = 101

// sweepNSPerState times the compiled transition sweep — the kernel under
// every exact evaluation — on each instance's compiled space, in ns per
// active state per operator application.
func sweepNSPerState(insts []*instance) (float64, error) {
	var total time.Duration
	touched := 0
	for _, in := range insts {
		basis, err := core.BuildBasis(in.p, core.BasisOptions{})
		if err != nil {
			return 0, err
		}
		sched := core.BuildSchedule(in.p, basis, core.ScheduleOptions{})
		us := make([][]int64, len(sched.Ops))
		for i, op := range sched.Ops {
			us[i] = op.U
		}
		space, ok := quantum.CompileSpace(in.p.Init, us, 0)
		if !ok {
			return 0, fmt.Errorf("%s: subspace exceeds the compile budget", in.label)
		}
		init, _ := space.IndexOf(in.p.Init)
		st := space.NewState()
		st.Reset(init)
		for op := range us { // spread the support before timing
			st.ApplyTransition(op, math.Pi/4)
		}
		t0 := time.Now()
		for time.Since(t0) < 200*time.Millisecond {
			for op := range us {
				touched += st.Size()
				st.ApplyTransition(op, math.Pi/4)
			}
		}
		total += time.Since(t0)
	}
	return float64(total) / float64(touched), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
