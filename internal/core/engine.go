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
}

// compiledRT holds one clone's mutable flat buffers, allocated lazily on
// first run so Clone stays cheap. distIn/distOut ping-pong across segments;
// lastDist snapshots the final distribution of the latest successful
// RunEnergyCtx for LastDistribution; cos/sin hold every operator's cos t and
// sin t for the current evaluation, computed once per evaluation rather than
// once per input state.
type compiledRT struct {
	st            *quantum.CompiledState
	distIn        []float64
	distOut       []float64
	counts        []int
	lastDist      []float64
	lastDistValid bool
	cos, sin      []float64
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
		e.crt = &compiledRT{
			st:       e.plan.space.NewState(),
			distIn:   make([]float64, n),
			distOut:  make([]float64, n),
			counts:   make([]int, n),
			lastDist: make([]float64, n),
			cos:      make([]float64, len(e.ops)),
			sin:      make([]float64, len(e.ops)),
		}
		e.crt.st.SetWorkerLimit(e.workerLimit)
	}
	return e.crt
}

// runCompiled is the compiled-engine counterpart of the map engine's
// segment loop (runMap), propagating the inter-segment distribution as a
// flat []float64 over the compiled subspace. The returned slice aliases the
// clone's ping-pong buffer: callers consume it before the next run. Every
// float matches the map engine bit for bit — merges, purification, and
// normalization all accumulate in ascending state order, which is exactly
// the map path's sorted-key order.
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
	for i, ti := range t {
		rt.cos[i] = math.Cos(ti)
		rt.sin[i] = math.Sin(ti)
	}
	in, out := rt.distIn, rt.distOut
	clear(in)
	in[e.plan.initIdx] = 1
	exact := e.opts.Shots <= 0 && e.opts.Device == nil
	for segIdx, seg := range e.segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if exact {
			err = e.runCompiledSegmentExact(ctx, segIdx, seg, in, out)
		} else {
			err = e.runCompiledSegmentSampled(ctx, segIdx, seg, in, out, rng)
		}
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		empty := true
		for _, v := range out {
			if v != 0 {
				empty = false
				break
			}
		}
		if empty {
			// All mass purified away — the same failure mode and message as
			// the map path.
			e.LastTerminatedEarly = true
			return nil, fmt.Errorf("core: %s: no feasible state survived segment %d", e.p.Name, e.LastSegmentsRun)
		}
		in, out = out, in
	}
	return in, nil
}

// runCompiledSegmentExact mirrors runSegmentExact over flat arrays. A
// segment of one operator is a single ascending sweep over the input
// distribution (CompiledSpace.CollapseTransition). A longer segment evolves
// each input state with nonzero weight through its operators on the clone's
// CompiledState and merges the outcome probabilities into out; each out
// slot takes at most one term per input state and input states run in
// ascending order, so the merge needs no sorted support.
func (e *Executor) runCompiledSegmentExact(ctx context.Context, segIdx int, seg []int, in, out []float64) error {
	modelShots := e.opts.Shots
	if modelShots <= 0 {
		modelShots = 1024
	}
	e.LastQuantumNS += float64(modelShots) * e.shotNS[segIdx]
	e.LastShotsUsed += modelShots

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
				return err
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
	normalizeFlat(out)
	return nil
}

// runCompiledSegmentSampled mirrors runSegmentSampled for the compiled
// engine's domain (no noise channels, so exactly one trajectory per state
// and no readout flips — the same branch the map path takes with a
// zero-noise device). Shot counts accumulate into a flat counts array with
// the same rng consumption order as the map path.
func (e *Executor) runCompiledSegmentSampled(ctx context.Context, segIdx int, seg []int, in, out []float64, rng *rand.Rand) error {
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
			return err
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
		return fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	e.LastMeasuredShots += total
	e.purifyFlat(out)
	normalizeFlat(out)
	e.lap(&e.clk.sample)
	return nil
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

// normalizeFlat rescales a flat distribution to unit mass. The sum runs in
// ascending index order — identical to normalizeDist's sorted-key order,
// since adding exact zeros does not perturb an IEEE accumulation.
func normalizeFlat(d []float64) {
	s := 0.0
	for _, v := range d {
		s += v
	}
	if s == 0 {
		return
	}
	for i, v := range d {
		if v != 0 {
			d[i] = v / s
		}
	}
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
