package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"rasengan/internal/bitvec"
	"rasengan/internal/quantum"
)

// Engine names selectable through ExecOptions.Engine. Both engines perform
// the same pairing arithmetic in the same order (including the amplitude
// prune), so results — distributions, samples, energies — are bit-identical
// on their shared domain; the choice is a pure performance knob and is
// therefore excluded from the canonical options fingerprint, like the worker
// count.
const (
	// EngineMap is the map-based Sparse simulator: no compile step, no
	// subspace size limit, and the only engine that supports noisy devices
	// (noise channels can scatter a state outside the compiled closure).
	EngineMap = "map"
	// EngineCompiled enumerates the reachable feasible subspace once at
	// executor construction and runs flat-array transition kernels with
	// zero steady-state allocations. It is the default; executors fall
	// back to EngineMap when a noisy device is attached or the subspace
	// exceeds the compile budget (see Executor.EngineFallbackReason).
	EngineCompiled = "compiled"
)

// ValidEngine reports whether name selects a known engine ("" = default).
// CLIs and services use it to reject typos before a solve starts.
func ValidEngine(name string) bool {
	return name == "" || name == EngineMap || name == EngineCompiled
}

// compiledPlan is the executor-wide compile artifact of the compiled engine:
// the enumerated subspace plus flat per-state feasibility and
// canonical-energy tables. It is built once in NewExecutor and shared
// read-only by every clone.
type compiledPlan struct {
	space    *quantum.CompiledSpace
	feasible []bool    // Problem.Feasible per state index
	energy   []float64 // Problem.ScoreMin per state index
	initIdx  int32
	// allFeasible records that every state of the closure is feasible, so
	// purification would zero nothing and is skipped.
	allFeasible bool
	// stride is the spacing of the segment boundaries each clone keeps
	// (see compiledRT): 1 when every boundary fits the snapshot bound, and
	// one past the last boundary on the sampled path, which keeps only the
	// seed distribution.
	stride int
}

// snapshotFloats bounds the boundary snapshots one clone keeps on the
// exact path: 2^20 floats, 8 MiB.
const snapshotFloats = 1 << 20

// snapshotStride returns the spacing of kept boundaries for a schedule of
// segs segments over states states: 1 while all segs+1 boundaries fit
// snapshotFloats, else the smallest spacing that brings them under it.
func snapshotStride(segs, states int) int {
	return ((segs+1)*states + snapshotFloats - 1) / snapshotFloats
}

// compiledRT holds one clone's mutable flat buffers, allocated lazily on
// first run so Clone stays cheap.
//
// Boundary b is the distribution entering segment b (boundary 0 is the
// seed, the last is the run's output); bounds[b] is its buffer. Every
// stride-th boundary has a slot of its own, and the others alternate
// between two scratch buffers. On the exact path the kept boundaries
// persist across runs: times holds the evolution times of the latest run
// and valid the last boundary that run completed, so the next run can
// restart at the last kept boundary before its first changed time.
// cos/sin hold every operator's cos t and sin t for times, so a run
// recomputes them only for the times it changes. lastDist
// snapshots the final distribution of the latest successful RunEnergyCtx
// for LastDistribution.
type compiledRT struct {
	st            *quantum.CompiledState
	bounds        [][]float64
	counts        []int
	lastDist      []float64
	lastDistValid bool
	times         []float64
	cos, sin      []float64
	primed        bool // times/cos/sin hold a run's values
	valid         int
}

// compileEngine attempts to select the compiled engine for this executor,
// setting plan/EngineUsed on success and EngineFallbackReason otherwise.
// Called from NewExecutor after segmentation.
func (e *Executor) compileEngine() {
	if e.opts.Device != nil && !e.opts.Device.Noise.IsZero() {
		e.EngineFallbackReason = "noisy device: noise channels can leave the compiled subspace"
		return
	}
	us := make([][]int64, len(e.ops))
	for i := range e.ops {
		us[i] = e.ops[i].U
	}
	space, ok := quantum.CompileSpace(e.p.Init, us, 0)
	if !ok {
		e.EngineFallbackReason = "reachable subspace exceeds the compile budget"
		return
	}
	initIdx, ok := space.IndexOf(e.p.Init)
	if !ok {
		e.EngineFallbackReason = "seed solution missing from compiled subspace"
		return
	}
	plan := &compiledPlan{
		space:       space,
		feasible:    make([]bool, space.Size()),
		energy:      make([]float64, space.Size()),
		initIdx:     initIdx,
		allFeasible: true,
		stride:      len(e.segments) + 1,
	}
	if e.exact() {
		plan.stride = snapshotStride(len(e.segments), space.Size())
	}
	for i := 0; i < space.Size(); i++ {
		x := space.StateAt(int32(i))
		plan.feasible[i] = e.p.Feasible(x)
		plan.energy[i] = e.p.ScoreMin(x)
		plan.allFeasible = plan.allFeasible && plan.feasible[i]
	}
	e.plan = plan
	e.EngineUsed = EngineCompiled
}

// rt returns this clone's compiled runtime, allocating it on first use.
func (e *Executor) rt() *compiledRT {
	if e.crt == nil {
		n := e.plan.space.Size()
		stride := e.plan.stride
		slots := len(e.segments)/stride + 1
		flat := make([]float64, (slots+2)*n) // the kept slots, then two scratch
		rt := &compiledRT{
			st:       e.plan.space.NewState(),
			bounds:   make([][]float64, len(e.segments)+1),
			counts:   make([]int, n),
			lastDist: make([]float64, n),
			times:    make([]float64, len(e.ops)),
			cos:      make([]float64, len(e.ops)),
			sin:      make([]float64, len(e.ops)),
		}
		for b := range rt.bounds {
			i := b / stride
			if b%stride != 0 {
				i = slots + b%2
			}
			rt.bounds[b] = flat[i*n : (i+1)*n : (i+1)*n]
		}
		// No segment writes boundary 0, so the seed is set once.
		rt.bounds[0][e.plan.initIdx] = 1
		rt.st.SetWorkerLimit(e.workerLimit)
		e.crt = rt
	}
	return e.crt
}

// exact reports whether runs propagate exact probabilities.
func (e *Executor) exact() bool { return e.opts.Shots <= 0 && e.opts.Device == nil }

// runCompiled is the compiled-engine counterpart of the map engine's
// segment loop (runMap), propagating the inter-segment distribution as a
// flat []float64 over the compiled subspace. The returned slice aliases the
// clone's buffers: callers consume it before the next run. Every float
// matches the map engine bit for bit — merges, purification, and
// normalization all accumulate in ascending state order, which is exactly
// the map path's sorted-key order.
//
// An exact run recomputes only what its times change. Segments before the
// first segment holding the first operator whose time differs bitwise from
// the previous run's produce the same boundaries as before, so the run
// restarts at the last kept boundary at or before that segment, and no
// later than the last boundary the previous run completed. The skipped
// segments still charge their accounting in order, so LastQuantumNS sums
// the same floats in the same order as a full run. cos/sin are recomputed
// only for the operators whose time changed.
func (e *Executor) runCompiled(ctx context.Context, t []float64, rng *rand.Rand) ([]float64, error) {
	e.LastShotsUsed = 0
	e.LastFeasibleShots = 0
	e.LastMeasuredShots = 0
	e.LastQuantumNS = 0
	e.LastSegmentsRun = 0
	e.LastTerminatedEarly = false
	e.startClock()
	defer e.lap(&e.clk.segment)

	rt := e.rt()
	first := len(t) // the first operator whose time changed
	for i, ti := range t {
		if rt.primed && math.Float64bits(ti) == math.Float64bits(rt.times[i]) {
			continue
		}
		first = min(first, i)
		rt.times[i] = ti
		rt.cos[i] = math.Cos(ti)
		rt.sin[i] = math.Sin(ti)
	}
	rt.primed = true
	exact := e.exact()
	restart := 0
	if exact {
		// Segments hold consecutive operators, so the first segment ending
		// at or after the first changed operator is the first one it moves.
		restart = len(e.segments)
		for j, seg := range e.segments {
			if seg[len(seg)-1] >= first {
				restart = j
				break
			}
		}
		restart = min(restart, rt.valid)
		restart -= restart % e.plan.stride
	}
	rt.valid = restart
	for segIdx, seg := range e.segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if segIdx < restart {
			e.chargeExactSegment(segIdx)
			e.LastSegmentsRun++
			continue
		}
		in, out := rt.bounds[segIdx], rt.bounds[segIdx+1]
		var mass float64
		var err error
		if exact {
			mass, err = e.runCompiledSegmentExact(ctx, segIdx, seg, in, out)
		} else {
			mass, err = e.runCompiledSegmentSampled(ctx, segIdx, seg, in, out, rng)
		}
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		// Entries are ≥ 0 or NaN, so the mass before normalization is 0
		// exactly when every entry is.
		if mass == 0 {
			// All mass purified away — the same failure mode and message as
			// the map path.
			e.LastTerminatedEarly = true
			return nil, fmt.Errorf("core: %s: no feasible state survived segment %d", e.p.Name, e.LastSegmentsRun)
		}
		rt.valid = segIdx + 1
	}
	return rt.bounds[len(e.segments)], nil
}

// chargeExactSegment adds one exact segment's modeled hardware time and
// shots to the run accounting: the time it would take at the default shot
// budget, so latency accounting stays comparable across exact and sampled
// runs.
func (e *Executor) chargeExactSegment(segIdx int) {
	modelShots := e.opts.Shots
	if modelShots <= 0 {
		modelShots = 1024
	}
	e.LastQuantumNS += float64(modelShots) * e.shotNS[segIdx]
	e.LastShotsUsed += modelShots
}

// runCompiledSegmentExact mirrors runSegmentExact over flat arrays. A
// segment of one operator is a single ascending sweep over the input
// distribution (CompiledSpace.CollapseTransition). A longer segment evolves
// each input state with nonzero weight through its operators on the clone's
// CompiledState and merges the outcome probabilities into out; each out
// slot takes at most one term per input state and input states run in
// ascending order, so the merge needs no sorted support. It returns the
// segment's mass before normalization.
func (e *Executor) runCompiledSegmentExact(ctx context.Context, segIdx int, seg []int, in, out []float64) (float64, error) {
	e.chargeExactSegment(segIdx)
	clear(out)
	rt := e.crt
	if len(seg) == 1 {
		op := seg[0]
		e.plan.space.CollapseTransition(op, rt.cos[op], rt.sin[op], in, out)
	} else {
		st := rt.st
		for xi, w := range in {
			if w == 0 {
				continue
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			st.Reset(int32(xi))
			for _, op := range seg {
				st.ApplyTransitionCS(op, rt.cos[op], rt.sin[op])
			}
			for _, yi := range st.Active() {
				a := st.AmpAt(yi)
				out[yi] += w * (real(a)*real(a) + imag(a)*imag(a))
			}
		}
	}
	e.purifyFlat(out)
	return normalizeFlat(out), nil
}

// runCompiledSegmentSampled mirrors runSegmentSampled for the compiled
// engine's domain (no noise channels, so exactly one trajectory per state
// and no readout flips — the same branch the map path takes with a
// zero-noise device). Shot counts accumulate into a flat counts array with
// the same rng consumption order as the map path. It returns the segment's
// mass before normalization.
func (e *Executor) runCompiledSegmentSampled(ctx context.Context, segIdx int, seg []int, in, out []float64, rng *rand.Rand) (float64, error) {
	shots := e.opts.shotsForSegment(segIdx)
	rt := e.crt
	counts := rt.counts
	clear(counts)
	st := rt.st
	for xi, w := range in {
		if w == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		nx := int(float64(shots)*w + 0.5)
		if nx == 0 {
			continue
		}
		e.LastShotsUsed += nx
		e.LastQuantumNS += float64(nx) * e.shotNS[segIdx]

		st.Reset(int32(xi))
		for _, op := range seg {
			st.ApplyTransitionCS(op, rt.cos[op], rt.sin[op])
		}
		st.SampleCounts(rng, nx, counts)
	}
	e.lap(&e.clk.segment)
	total := 0
	any := false
	clear(out)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		any = true
		total += c
		out[i] = float64(c)
		if e.plan.feasible[i] {
			e.LastFeasibleShots += c
		}
	}
	if !any {
		return 0, fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	e.LastMeasuredShots += total
	e.purifyFlat(out)
	mass := normalizeFlat(out)
	e.lap(&e.clk.sample)
	return mass, nil
}

// purifyFlat zeroes the infeasible states of a flat distribution, unless
// purification is disabled or the closure holds no infeasible state.
func (e *Executor) purifyFlat(d []float64) {
	if e.opts.DisablePurify || e.plan.allFeasible {
		return
	}
	for i := range d {
		if !e.plan.feasible[i] {
			d[i] = 0
		}
	}
}

// normalizeFlat rescales a flat distribution to unit mass and returns the
// mass it had. The sum runs in ascending index order — identical to
// normalizeDist's sorted-key order, since adding exact zeros does not
// perturb an IEEE accumulation. A mass of exactly 1 skips the division:
// every entry is then finite, and v/1 == v bitwise.
func normalizeFlat(d []float64) float64 {
	s := 0.0
	for _, v := range d {
		s += v
	}
	if s == 0 || s == 1 {
		return s
	}
	for i, v := range d {
		if v != 0 {
			d[i] = v / s
		}
	}
	return s
}

// flatToMap materializes a flat distribution as the map form the public API
// returns; zero entries are absent keys, matching the map engine exactly.
func (e *Executor) flatToMap(flat []float64) map[bitvec.Vec]float64 {
	out := make(map[bitvec.Vec]float64)
	for i, v := range flat {
		if v != 0 {
			out[e.plan.space.StateAt(int32(i))] = v
		}
	}
	return out
}

// RunEnergy is RunEnergyCtx without cancellation.
func (e *Executor) RunEnergy(t []float64, rng *rand.Rand) (float64, error) {
	return e.RunEnergyCtx(context.Background(), t, rng)
}

// RunEnergyCtx executes the schedule like RunCtx but returns only the
// expectation of the problem's canonical minimization objective over the
// final distribution — the scalar the optimizer minimizes. On the compiled
// engine this reads the precomputed energy table over the flat distribution
// and materializes no maps; the full distribution of the most recent
// successful call stays available through LastDistribution. The returned
// energy is bit-identical across engines: both accumulate weight·energy in
// ascending basis-state order over the same weights.
func (e *Executor) RunEnergyCtx(ctx context.Context, t []float64, rng *rand.Rand) (float64, error) {
	if len(t) != len(e.ops) {
		return 0, fmt.Errorf("core: %d times for %d operators", len(t), len(e.ops))
	}
	energy := 0.0
	if e.plan != nil {
		flat, err := e.runCompiled(ctx, t, rng)
		if err != nil {
			return 0, err
		}
		rt := e.crt
		copy(rt.lastDist, flat)
		rt.lastDistValid = true
		for i, v := range flat {
			if v != 0 {
				energy += v * e.plan.energy[i]
			}
		}
	} else {
		dist, err := e.runMap(ctx, t, rng)
		if err != nil {
			return 0, err
		}
		e.lastGoodDist = dist
		for _, x := range sortedDistKeys(dist) {
			energy += dist[x] * e.p.ScoreMin(x)
		}
	}
	e.lap(&e.clk.sample)
	return energy, nil
}

// LastDistribution returns the final distribution of the most recent
// successful RunEnergyCtx on this executor clone, or nil when none
// succeeded yet. The compiled engine materializes the map on demand — only
// callers that actually need the fallback distribution (the solver, when
// the final evaluation fails) pay for it.
func (e *Executor) LastDistribution() map[bitvec.Vec]float64 {
	if e.plan != nil {
		if e.crt == nil || !e.crt.lastDistValid {
			return nil
		}
		return e.flatToMap(e.crt.lastDist)
	}
	return e.lastGoodDist
}

// CompiledSpaceSize reports the number of basis states in the compiled
// subspace (0 when the map engine is active) — surfaced by rasengan-inspect.
func (e *Executor) CompiledSpaceSize() int {
	if e.plan == nil {
		return 0
	}
	return e.plan.space.Size()
}

// CompiledSpaceStats returns (states, distinct operators, transition pairs)
// of the compile artifact, all zero when the map engine is active.
func (e *Executor) CompiledSpaceStats() (states, distinctOps, pairs int) {
	if e.plan == nil {
		return 0, 0, 0
	}
	return e.plan.space.Size(), e.plan.space.NumDistinctOps(), e.plan.space.NumPairs()
}
