package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/obs"
	"rasengan/internal/optimize"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// Options configures a full Rasengan solve. The zero value enables every
// optimization (simplify, prune, segment, purify) with exact noise-free
// execution — the algorithmic-evaluation setting of Table 2.
type Options struct {
	Basis    BasisOptions
	Schedule ScheduleOptions
	Exec     ExecOptions

	// Optimizer selects the classical parameter updater (default COBYLA,
	// the paper's choice).
	Optimizer optimize.Method
	// MaxIter bounds optimizer iterations (default 100).
	MaxIter int
	// MaxEvals bounds objective evaluations (0 = derived).
	MaxEvals int
	// InitialTime seeds every evolution time (default π/4, an equal
	// superposition split per transition).
	InitialTime float64
	// InitialTimes warm-starts the optimizer with a full evolution-time
	// vector (e.g. transferred from a smaller instance or a previous
	// solve); its length must match the scheduled operator count, else it
	// is ignored. It replaces the first multi-start point.
	InitialTimes []float64
	// Seed drives all stochastic parts (sampling, noise, SPSA).
	Seed int64

	// Workers caps this solve's parallelism: the multi-start fan-out and
	// every simulator kernel beneath it request at most Workers.Workers()
	// pool workers, re-read at optimizer iteration boundaries so a
	// serving layer can renegotiate a compute-budget lease mid-solve.
	// Nil means the package default width. Like the worker count itself,
	// it is excluded from CanonicalOptionsJSON: parallel's determinism
	// contract makes results bit-identical at any width, so the limiter
	// can never affect a result or a cache key.
	Workers parallel.Limiter

	// Telemetry configures observability for this solve. It is excluded
	// from CanonicalOptionsJSON by construction: telemetry observes the
	// pipeline and never steers it, so two solves that differ only in
	// Telemetry are interchangeable (and cache-key identical).
	Telemetry TelemetryOptions

	// Checkpoint, when non-nil, exports a resumable checkpoint at
	// optimizer iteration boundaries (see CheckpointOptions). Like
	// Telemetry it is excluded from CanonicalOptionsJSON: checkpointing
	// observes the solve without steering it, and with Checkpoint nil
	// the iteration hot path is bit-for-bit the uncheckpointed one.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, continues a solve from a checkpoint instead
	// of starting fresh: the pruned schedule is restored from the file
	// (skipping basis construction and the dry run; Result.Basis is nil
	// on resume), finished starts are replayed from their recorded
	// results, and interrupted starts continue from their optimizer
	// snapshot with the executor RNG stream fast-forwarded to the
	// recorded position. Validate runs first and a checkpoint for a
	// different problem or options fingerprint is refused. The resumed
	// Result's wire payload is byte-identical to the uninterrupted
	// run's. Also excluded from CanonicalOptionsJSON.
	Resume *Checkpoint
}

// TelemetryOptions switches on the solve's observability surfaces. The
// zero value records nothing and costs only nil checks on the hot path.
type TelemetryOptions struct {
	// Spans, when non-nil, receives a span per pipeline stage: the solve
	// root, basis construction, transition-Hamiltonian/schedule build,
	// circuit compile, every optimizer iteration with the simulator's
	// segment and sample time of that iteration beneath it, and the final
	// evaluation. The recorder may be shared by concurrent solves; each
	// solve allocates its own tracks.
	Spans *obs.Recorder
	// Convergence captures a per-iteration record of the winning
	// optimizer start into Result.Convergence.
	Convergence bool
	// EOpt, when EOptKnown, is the instance's known optimum; convergence
	// records then carry the running ARG |(E_opt − E_best)/E_opt|.
	EOpt      float64
	EOptKnown bool
	// Progress, when non-nil, receives one folded record per completed
	// optimizer iteration (see obs.ProgressCell): total iteration count,
	// incumbent best energy/ARG/param-norm across the concurrent
	// multi-starts, the solve's current worker-lease width, and the
	// checkpoint sequence. Like Spans it is write-only for the solver —
	// watchers read the cell, the solver never does.
	Progress *obs.ProgressCell
	// Events, when non-nil, receives flight-recorder events from inside
	// the solve (engine fallback, lease renegotiation, checkpoint writes,
	// recovered panics) with the scope's job correlation ids attached.
	Events *obs.EventScope
}

// IterationTelemetry is one per-iteration convergence record. Everything
// except ElapsedMS is a deterministic function of (problem, options):
// identical solves produce identical traces at any worker count.
type IterationTelemetry struct {
	// Start is the multi-start index the record belongs to.
	Start int `json:"start"`
	// Iter is the 0-based optimizer iteration within that start.
	Iter int `json:"iter"`
	// BestEnergy is the best objective expectation seen so far.
	BestEnergy float64 `json:"best_energy"`
	// ARG is the running approximation-ratio gap against the known
	// optimum; NaN when no optimum was supplied (see TelemetryOptions).
	ARG float64 `json:"-"`
	// ParamNorm is the L2 norm of the best evolution-time vector so far.
	ParamNorm float64 `json:"param_norm"`
	// ElapsedMS is wall time since the start's optimizer began — the only
	// nondeterministic field.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// progress is the live-progress view of the record; the caller adds the
// checkpoint count and worker width, which the record does not carry.
func (it IterationTelemetry) progress() obs.Progress {
	return obs.Progress{Start: it.Start, Iter: it.Iter, BestEnergy: it.BestEnergy, ARG: it.ARG,
		ParamNorm: it.ParamNorm, ElapsedMS: it.ElapsedMS}
}

// LatencyBreakdown models end-to-end training time (Figure 12/13).
type LatencyBreakdown struct {
	QuantumMS   float64 // modeled circuit execution + readout over all evals
	ClassicalMS float64 // optimizer + purification + bookkeeping (modeled)
	CompileMS   float64 // measured basis/schedule/compile time

	// Stages is the measured wall-time per pipeline stage in milliseconds,
	// aggregated from the solve's spans (obs stage names as keys). Nil
	// unless Options.Telemetry.Spans was set.
	Stages map[string]float64 `json:"stages,omitempty"`
}

// TotalMS returns the full training latency.
func (l LatencyBreakdown) TotalMS() float64 { return l.QuantumMS + l.ClassicalMS + l.CompileMS }

// Result is the outcome of one Rasengan solve.
type Result struct {
	Problem *problems.Problem

	// BestSolution is the feasible basis state with the best objective in
	// the final distribution; BestValue its objective value.
	BestSolution bitvec.Vec
	BestValue    float64
	// Expectation is Σ p(x)·f(x) over the final (purified) distribution —
	// the E_real the paper's ARG uses.
	Expectation float64
	// Distribution is the final measured distribution.
	Distribution map[bitvec.Vec]float64

	// InConstraintsRate is the fraction of the output distribution that
	// satisfies the constraints — the Figure 11(b) metric. Purification
	// guarantees 1; ablations without it report the degraded rate.
	InConstraintsRate float64
	// RawFeasibleShotRate is the fraction of raw measured shots (before
	// purification) that satisfied the constraints, a diagnostic for how
	// much work purification did; 1 for exact noise-free runs.
	RawFeasibleShotRate float64

	NumParams        int
	NumSegments      int
	SegmentDepth     int // compiled depth of the deepest segment
	UnsegmentedDepth int
	TotalCX          int
	Latency          LatencyBreakdown
	Iterations       int
	Evals            int

	Basis    *Basis
	Schedule *Schedule
	Times    []float64

	// Convergence holds the per-iteration telemetry of the winning
	// optimizer start; nil unless Options.Telemetry.Convergence was set.
	Convergence []IterationTelemetry
}

// Solve runs the full Rasengan pipeline on p.
//
// Cancellation is cooperative: ctx (nil means context.Background()) is
// checked at every optimizer iteration, executor segment, and parallel
// chunk boundary, and once it fires Solve returns ctx.Err() — typically
// context.Canceled or context.DeadlineExceeded — within one boundary's
// worth of work. Cancellation never corrupts shared state: the worker
// pool merely stops handing out indices.
//
// Panics raised anywhere in the solve — including on pool workers, which
// surface as *parallel.PanicError — are recovered here and returned as a
// *SolvePanicError matching errors.Is(err, ErrSolvePanic), so one bad
// problem instance cannot take down a process hosting many solves.
func Solve(ctx context.Context, p *problems.Problem, opts Options) (result *Result, rerr error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			perr := NewSolvePanicError(r)
			opts.Telemetry.Events.Event(obs.SevError, obs.EventPanic, perr.Error())
			result, rerr = nil, perr
		}
	}()
	if e := ctx.Err(); e != nil {
		return nil, e
	}

	// Spans are nil-safe throughout: with telemetry off, rec is nil and
	// every call below is a no-op nil check.
	rec := opts.Telemetry.Spans
	mainTrack := int32(0)
	root := obs.NoParent
	if rec.Enabled() {
		mainTrack = rec.Track("solve " + p.Name)
		root = rec.Start(obs.StageSolve, mainTrack, obs.NoParent, obs.Attr{Key: "problem", Val: p.Name})
	}
	defer rec.End(root) // idempotent: also fires on error returns

	compileStart := time.Now()
	var basis *Basis
	var sched *Schedule
	var err error
	rc := opts.Resume
	if rc != nil {
		// Resume path: the checkpoint must belong to exactly this
		// (problem, options) pair, and its stored schedule replaces basis
		// construction and the pruning dry run entirely.
		if err := rc.Validate(p, opts); err != nil {
			return nil, err
		}
		sched, err = UnmarshalSchedule(p, rc.file.Schedule)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
	} else {
		sp := rec.Start(obs.StageBasis, mainTrack, root)
		basis, err = BuildBasis(p, opts.Basis)
		rec.End(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.Start(obs.StageHamiltonian, mainTrack, root)
		sched = BuildSchedule(p, basis, opts.Schedule)
		rec.End(sp)
		if len(sched.Ops) == 0 {
			return nil, fmt.Errorf("core: %s: schedule pruned to nothing", p.Name)
		}
	}
	sp := rec.Start(obs.StageCircuit, mainTrack, root)
	exec, err := NewExecutor(p, sched.Ops, opts.Exec)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	if exec.EngineFallbackReason != "" {
		opts.Telemetry.Events.Event(obs.SevWarn, obs.EventEngineFallback,
			exec.EngineUsed+": "+exec.EngineFallbackReason)
	}
	compileMS := float64(time.Since(compileStart).Microseconds()) / 1000
	fault(FaultCompile)

	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	initT := opts.InitialTime
	if initT == 0 {
		initT = math.Pi / 4
	}
	// Reseeding a pooled source draws exactly what a fresh
	// rand.NewSource(opts.Seed+7) would, without allocating its table.
	rng := startRands.Get().(*rand.Rand)
	rng.Seed(opts.Seed + 7)

	// Multi-start: the segmented landscape is piecewise and a single
	// derivative-free descent can stall, so the iteration budget is split
	// across a uniform π/4 start (equal splitting per transition), a
	// near-π/2 start (deterministic hopping), and a randomized start.
	starts := [][]float64{
		constVec(exec.NumParams(), initT),
		constVec(exec.NumParams(), math.Pi/2*0.98),
		randVec(exec.NumParams(), rng),
	}
	startRands.Put(rng)
	if len(opts.InitialTimes) == exec.NumParams() {
		starts[0] = append([]float64(nil), opts.InitialTimes...)
	}
	perStart := maxIter / len(starts)
	if perStart < 10 {
		perStart = maxIter
		starts = starts[:1]
	}

	// Persistence setup. With Checkpoint nil and Resume nil this block
	// costs two nil checks and the solve below runs the exact
	// uncheckpointed path (plain RNG, no snapshot hook — zero added
	// allocations per iteration).
	persist := opts.Checkpoint != nil && opts.Checkpoint.Write != nil
	counted := persist || rc != nil
	if rc != nil && len(rc.file.Starts) != len(starts) {
		return nil, fmt.Errorf("core: checkpoint holds %d starts, this solve uses %d (corrupt or hand-edited file)", len(rc.file.Starts), len(starts))
	}
	// Live-introspection plumbing. cell/events are nil-safe throughout;
	// ckptSeq counts checkpoint files written so progress records can
	// carry the sequence without the assembler knowing about progress.
	cell := opts.Telemetry.Progress
	events := opts.Telemetry.Events
	var ckptSeq atomic.Uint64
	var ck *checkpointAssembler
	if persist {
		schedBytes := json.RawMessage(nil)
		if rc != nil {
			schedBytes = rc.file.Schedule
		} else if schedBytes, err = MarshalSchedule(p, sched); err != nil {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
		ckOpts := opts.Checkpoint
		if cell != nil || events != nil {
			// Wrap (a copy of) the write hook to count and report writes.
			// Counting after a successful write keeps the sequence equal to
			// the number of files that actually landed.
			inner := ckOpts.Write
			wrapped := *ckOpts
			wrapped.Write = func(data []byte) error {
				werr := inner(data)
				if werr == nil {
					seq := ckptSeq.Add(1)
					events.Event(obs.SevInfo, obs.EventCheckpoint,
						fmt.Sprintf("seq %d (%d bytes)", seq, len(data)))
				}
				return werr
			}
			ckOpts = &wrapped
		}
		ck = newCheckpointAssembler(p, opts, schedBytes, len(starts), ckOpts)
	}

	// Starts run concurrently on the shared worker pool. Each owns a
	// cloned executor (compiled schedule shared, accounting private) and a
	// SplitMix64-derived RNG stream, so the outcome is bit-identical for
	// any worker count; the final evaluation gets the stream after the
	// last start.
	type startOutcome struct {
		res       optimize.Result
		evals     int
		quantumNS float64
		// ex is the start's executor clone; its LastDistribution carries
		// the most recent successful evaluation's distribution, used as a
		// fallback when the final evaluation fails.
		ex *Executor
		// err reports a resume-state restore failure (worker closures
		// cannot return errors; the solver checks after the fan-out).
		err error
	}
	outcomes := make([]startOutcome, len(starts))
	// Tracks are allocated up front, before the pool fans out, so track ids
	// are a deterministic function of the start index regardless of which
	// worker runs which start first.
	startTracks := make([]int32, len(starts))
	for i := range startTracks {
		startTracks[i] = mainTrack
	}
	if rec.Enabled() {
		for i := range starts {
			startTracks[i] = rec.Track("start " + strconv.Itoa(i))
		}
	}
	telemetryOn := rec.Enabled() || opts.Telemetry.Convergence || cell != nil
	convs := make([][]IterationTelemetry, len(starts))

	// Compute-budget plumbing. With no limiter the fan-out and kernels run
	// at the package default width — bit-for-bit the pre-lease behavior.
	// With one, the start fan-out claims at most the lease's width and each
	// start's executor gets an even share of it, re-read at every iteration
	// boundary (see the renegotiation hook below) so a lease resized by the
	// budget while this solve runs takes effect within one iteration.
	lim := opts.Workers
	innerWidth := func() int {
		w := parallel.LimiterWidth(lim)
		conc := len(starts)
		if conc > w {
			conc = w
		}
		share := w / conc
		if share < 1 {
			share = 1
		}
		return share
	}
	fanWidth := 0 // 0 = default width
	if lim != nil {
		fanWidth = parallel.LimiterWidth(lim)
	}
	parallel.ForWorkers(fanWidth, len(starts), func(i int) {
		ex := exec.Clone()
		ex.SetTelemetry(rec, startTracks[i])
		if lim != nil {
			ex.SetWorkerLimit(innerWidth())
		}
		// The stream source emits the bit-identical stream of
		// parallel.NewRand while exposing its state for capture, so
		// checkpoints can record it and resumes can restore it. The plain
		// source stays on the default path to keep it untouched, and an
		// exact executor, which never draws, gets none.
		var srng *rand.Rand
		var src *parallel.StreamSource
		if counted {
			src = parallel.NewStreamSource(opts.Seed+7, uint64(i))
			srng = src.Rand()
		} else if !exec.exact() {
			srng = parallel.NewRand(opts.Seed+7, uint64(i))
		}
		o := &outcomes[i]
		o.ex = ex
		objective := func(t []float64) float64 {
			fault(FaultIteration)
			if ctx.Err() != nil {
				// Fast-exit: an infinite value never beats the incumbent,
				// and the optimizer's own per-iteration ctx check stops the
				// loop at the next boundary.
				return math.Inf(1)
			}
			o.evals++
			// RunEnergyCtx skips the per-eval map materialization on the
			// compiled engine; the energy is bit-identical to summing
			// dist[x]·ScoreMin(x) over the sorted distribution keys.
			energy, err := ex.RunEnergyCtx(ctx, t, srng)
			o.quantumNS += ex.LastQuantumNS
			if err != nil {
				return math.Inf(1)
			}
			return energy
		}
		oopts := optimize.Options{
			MaxIter:  perStart,
			MaxEvals: opts.MaxEvals,
			Step:     math.Pi / 8,
			Seed:     opts.Seed + int64(i),
			Ctx:      ctx,
		}
		if rc != nil {
			st := rc.file.Starts[i]
			if st.Done {
				// This start had finished before the interruption: replay its
				// recorded result verbatim — rerunning it would waste the
				// whole point of resuming.
				o.res = optimize.Result{X: append([]float64(nil), st.X...), F: st.F, Evals: st.OptEvals, Iters: st.Iters}
				o.evals = st.Evals
				o.quantumNS = st.QuantumNS
				if persist {
					ck.finish(i, o.res, o.evals, o.quantumNS)
				}
				return
			}
			if st.Optimizer != nil {
				// Mid-run snapshot: restore accounting, restore the executor
				// RNG stream to the recorded state, and hand the optimizer
				// its internal state. A zero-value slot (the start never
				// reached a boundary before the crash) falls through and
				// runs fresh, which is exactly what it had done.
				o.evals = st.Evals
				o.quantumNS = st.QuantumNS
				if o.err = src.RestoreState(st.RNGState); o.err != nil {
					o.res = optimize.Result{F: math.Inf(1)}
					return
				}
				oopts.Resume = st.Optimizer
			}
		}
		if persist {
			oopts.OnSnapshot = func(st *optimize.State) {
				if ctx.Err() != nil {
					// Once the context fires, the objective fast-exits with
					// +Inf (see below), so boundary state from a cancelled
					// iteration is polluted and must not be exported: the
					// last pre-cancellation write is the resume point, and
					// resuming re-runs the cancelled iteration in full.
					return
				}
				ck.update(i, st, src.State(), o.evals, o.quantumNS)
			}
		}
		// Lease renegotiation rides the same observational hook as
		// telemetry: at each iteration boundary the executor re-reads the
		// limiter and resizes its kernel fan-out. The hook cannot change
		// results — worker width is bit-identity-neutral by the parallel
		// package's contract — so a lease growing or shrinking mid-solve
		// only moves wall time.
		var renegotiate func(iter int, bestF float64, bestX []float64)
		if lim != nil {
			lastWidth := innerWidth()
			renegotiate = func(int, float64, []float64) {
				w := innerWidth()
				if w != lastWidth {
					events.Event(obs.SevInfo, obs.EventLease,
						fmt.Sprintf("start %d width %d -> %d", i, lastWidth, w))
					lastWidth = w
				}
				ex.SetWorkerLimit(w)
			}
			oopts.OnIteration = renegotiate
		}
		if telemetryOn {
			// The hook observes iteration boundaries: a span from the previous
			// boundary to now with the executor's segment and sample time of
			// the iteration flushed beneath it, and a convergence record of
			// the running best. It reads only values the optimizer already
			// computed, so wiring it cannot change the run (see
			// optimize.Options.OnIteration).
			wallStart := time.Now()
			lastMark := rec.Now()
			oopts.OnIteration = func(iter int, bestF float64, bestX []float64) {
				if renegotiate != nil {
					renegotiate(iter, bestF, bestX)
				}
				if rec.Enabled() {
					now := rec.Now()
					id := rec.Record(obs.StageIteration, startTracks[i], root, lastMark, now,
						obs.Attr{Key: "iter", Val: strconv.Itoa(iter)})
					ex.flushStages(id, now)
					lastMark = now
				}
				if !opts.Telemetry.Convergence && cell == nil {
					return
				}
				// One record per boundary feeds both the convergence trace
				// and the live-progress cell.
				it := IterationTelemetry{
					Start:      i,
					Iter:       iter,
					BestEnergy: bestF,
					ARG:        math.NaN(),
					ParamNorm:  l2norm(bestX),
					ElapsedMS:  float64(time.Since(wallStart).Microseconds()) / 1000,
				}
				if opts.Telemetry.EOptKnown && opts.Telemetry.EOpt != 0 {
					it.ARG = math.Abs((opts.Telemetry.EOpt - bestF) / opts.Telemetry.EOpt)
				}
				if opts.Telemetry.Convergence {
					convs[i] = append(convs[i], it)
				}
				if cell != nil {
					// The cell folds concurrent starts into one monotone view
					// (total iteration count, incumbent best), so a watcher
					// sees non-increasing best energy no matter which start
					// publishes; this record is just one start's boundary.
					pr := it.progress()
					pr.CheckpointSeq = ckptSeq.Load()
					if lim != nil {
						pr.Workers = innerWidth()
					}
					cell.Publish(pr)
				}
			}
		}
		o.res = optimize.Minimize(opts.Optimizer, objective, starts[i], oopts)
		// Evaluations after the last iteration boundary.
		ex.flushStages(root, rec.Now())
		if persist && ctx.Err() == nil {
			// Completion record: a later resume replays this start's result
			// instead of re-optimizing. Skipped on cancellation — the
			// optimizer stopped at an arbitrary boundary, and the last
			// mid-run snapshot is the state a resume must continue from.
			ck.finish(i, o.res, o.evals, o.quantumNS)
		}
	})
	if persist {
		// Before any return (including cancellation): the in-flight
		// flush must land so Write never fires after Solve returns.
		ck.sync()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range outcomes {
		if outcomes[i].err != nil {
			return nil, fmt.Errorf("core: resume start %d: %w", i, outcomes[i].err)
		}
	}

	// Winner by objective value, ties to the lowest start index.
	best := 0
	for i := 1; i < len(outcomes); i++ {
		if outcomes[i].res.F < outcomes[best].res.F {
			best = i
		}
	}
	res := outcomes[best].res
	evalCount := 0
	quantumNS := 0.0
	for _, o := range outcomes {
		evalCount += o.evals
		quantumNS += o.quantumNS
	}

	// Final evaluation at the optimizer's best parameters to produce the
	// reported distribution and in-constraints accounting. It runs on the
	// winning start's clone, whose compiled buffers are warm and whose
	// kept boundaries let an exact run skip the segments its times leave
	// unchanged; by the prefix contract of runCompiled the result is the
	// same as a full run on a fresh clone. It runs alone, so it may use the
	// lease's full current width.
	fin := outcomes[best].ex
	fin.SetTelemetry(rec, mainTrack)
	if lim != nil {
		fin.SetWorkerLimit(parallel.LimiterWidth(lim))
	}
	var finalRng *rand.Rand
	if !fin.exact() {
		finalRng = parallel.NewRand(opts.Seed+7, uint64(len(starts)))
	}
	sp = rec.Start(obs.StageFinalEval, mainTrack, root)
	finalDist, flat, err := fin.runDist(ctx, res.X, finalRng)
	fin.flushStages(sp, rec.Now())
	rec.End(sp)
	quantumNS += fin.LastQuantumNS
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		// Only a failed final evaluation pays for the winning start's last
		// distribution: that of its last successful RunEnergyCtx, which a
		// run through runDist does not overwrite.
		if finalDist = fin.LastDistribution(); finalDist == nil {
			return nil, fmt.Errorf("core: %s: optimization never produced a feasible distribution: %w", p.Name, err)
		}
	}
	rawRate := 1.0
	if fin.LastMeasuredShots > 0 {
		rawRate = float64(fin.LastFeasibleShots) / float64(fin.LastMeasuredShots)
	}
	tally := tallyFinal(p, fin.plan, finalDist, flat)
	if !tally.bestSet {
		return nil, fmt.Errorf("core: %s: final distribution has no feasible state", p.Name)
	}

	out := &Result{
		Problem:             p,
		BestSolution:        tally.bestX,
		BestValue:           tally.best,
		Expectation:         tally.expectation,
		Distribution:        finalDist,
		InConstraintsRate:   min(tally.inRate, 1), // guard float accumulation past unity
		RawFeasibleShotRate: rawRate,
		NumParams:           exec.NumParams(),
		NumSegments:         exec.NumSegments(),
		SegmentDepth:        exec.MaxSegmentDepth(),
		UnsegmentedDepth:    sumInts(exec.SegmentDepths),
		TotalCX:             exec.TotalCX,
		Iterations:          res.Iters,
		Evals:               evalCount,
		Basis:               basis,
		Schedule:            sched,
		Times:               res.X,
	}

	classicalPerEval := 2.0
	if opts.Exec.Device != nil {
		classicalPerEval = opts.Exec.Device.ClassicalPerEvalMS
	}
	out.Latency = LatencyBreakdown{
		QuantumMS:   quantumNS / 1e6,
		ClassicalMS: float64(evalCount+1) * classicalPerEval,
		CompileMS:   compileMS,
	}
	if opts.Telemetry.Convergence {
		out.Convergence = convs[best]
	}
	if rec.Enabled() {
		// Close the root now (End is idempotent; the deferred End becomes a
		// no-op) so it counts in the per-stage totals.
		rec.End(root)
		out.Latency.Stages = make(map[string]float64)
		tracks := append([]int32{mainTrack}, startTracks...)
		for stage, d := range rec.StageTotals(tracks...) {
			out.Latency.Stages[stage] = float64(d.Microseconds()) / 1000
		}
	}
	return out, nil
}

// tallyFinal folds a final distribution into a finalTally in ascending
// Compare order: these values are part of the deterministic wire payload,
// and map-iteration float addition would make byte-identical repeat
// solves diverge at the last ulp. A compiled final evaluation (flat
// non-nil) is read with the plan's tables, whose state index order is
// Compare order and which hold Feasible and ScoreMin per state; its zero
// entries are the map's absent keys. Otherwise, on the map engine or the
// fallback distribution, the map is read in sorted key order.
func tallyFinal(p *problems.Problem, plan *compiledPlan, dist map[bitvec.Vec]float64, flat []float64) finalTally {
	t := finalTally{sense: p.Sense}
	if flat != nil {
		for i, pr := range flat {
			if pr != 0 {
				t.add(plan.space.StateAt(int32(i)), pr, plan.feasible[i], plan.energy[i])
			}
		}
		return t
	}
	for _, x := range sortedDistKeys(dist) {
		t.add(x, dist[x], p.Feasible(x), p.ScoreMin(x))
	}
	return t
}

// finalTally accumulates a Result's in-constraints mass, expectation and
// best feasible state over a final distribution, fed one state at a time
// in ascending Compare order.
type finalTally struct {
	sense                     problems.Sense
	inRate, expectation, best float64
	bestX                     bitvec.Vec
	bestSet                   bool
}

// add folds in state x with probability pr, its feasibility and its
// ScoreMin value. The objective is ScoreMin under Minimize and its
// negation under Maximize, exactly, since negation is exact.
func (t *finalTally) add(x bitvec.Vec, pr float64, feasible bool, scoreMin float64) {
	v := scoreMin
	if t.sense == problems.Maximize {
		v = -v
	}
	t.expectation += pr * v
	if !feasible {
		return
	}
	t.inRate += pr
	better := !t.bestSet
	if t.bestSet {
		if t.sense == problems.Minimize {
			better = v < t.best
		} else {
			better = v > t.best
		}
	}
	if better {
		t.best, t.bestX, t.bestSet = v, x, true
	}
}

// ScheduleParamCount reports how many evolution-time parameters a solve
// of p under opts would optimize — the length a warm-start
// Options.InitialTimes vector must have to seed the optimizer (Solve
// ignores vectors of any other length). It runs basis construction and
// schedule pruning only (no executor compile, no simulation), so a
// serving layer can validate stored warm starts before injecting them
// into the options that form its cache key.
func ScheduleParamCount(p *problems.Problem, opts Options) (int, error) {
	basis, err := BuildBasis(p, opts.Basis)
	if err != nil {
		return 0, err
	}
	sched := BuildSchedule(p, basis, opts.Schedule)
	return len(sched.Ops), nil
}

// l2norm returns the Euclidean norm of v.
func l2norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func constVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// startRands recycles the random start's math/rand sources; Solve
// reseeds one per call.
var startRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

func randVec(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * math.Pi
	}
	return out
}

func sumInts(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}
