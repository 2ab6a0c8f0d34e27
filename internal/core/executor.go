package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// ExecOptions configures segmented execution (Sections 4.2–4.3).
type ExecOptions struct {
	// Shots per segment; 0 runs exact probability propagation (only
	// meaningful without a noisy device).
	Shots int
	// OpsPerSegment fixes how many transition operators each segment
	// holds. 0 derives segmentation from DepthBudget.
	OpsPerSegment int
	// DepthBudget is the compiled-depth budget per segment used when
	// OpsPerSegment is 0 (default 50, the paper's deployable depth).
	DepthBudget int
	// DisableSegmentation executes the whole schedule as one coherent
	// circuit (ablation for opt 3).
	DisableSegmentation bool
	// DisablePurify turns off the constraint filter between segments
	// (ablation for the error-mitigation half of opt 3).
	DisablePurify bool
	// Device supplies the noise model and timing; nil is the ideal
	// simulator.
	Device *device.Device
	// Trajectories bounds noise realizations per (segment, input state);
	// 0 defaults to 8.
	Trajectories int
	// ShotGrowth scales the shot budget of each successive segment
	// (shots_i = Shots · ShotGrowth^i, capped by MaxShotsPerSegment):
	// the dynamic configuration of Figure 7, where later segments take
	// more shots to preserve the probability information with higher
	// precision. 0 or 1 keeps shots constant.
	ShotGrowth float64
	// MaxShotsPerSegment caps the growth (default 65536).
	MaxShotsPerSegment int
	// Engine selects the transition-simulation backend: EngineCompiled
	// (the default when empty) enumerates the reachable feasible subspace
	// once at construction and runs flat-array kernels, falling back to
	// the map engine when a noisy device is attached or the subspace
	// exceeds the compile budget; EngineMap forces the map-based Sparse
	// simulator unconditionally. The engines are bit-identical on their
	// shared domain, so Engine — like the worker count — is excluded from
	// CanonicalOptionsJSON and never affects results or cache keys.
	Engine string
}

func (o ExecOptions) depthBudget() int {
	if o.DepthBudget > 0 {
		return o.DepthBudget
	}
	// Derive from the device's coherence window when one is attached:
	// segments should spend at most ~20% of T2 in flight, which at
	// Eagle-class timings (T2 150 µs, CX 560 ns) lands at the paper's
	// ~50-deep deployable segments.
	if o.Device != nil && o.Device.T2NS > 0 && o.Device.Durations.TwoQubitNS > 0 {
		b := int(0.2 * o.Device.T2NS / o.Device.Durations.TwoQubitNS)
		if b < 10 {
			b = 10
		}
		if b > 200 {
			b = 200
		}
		return b
	}
	return 50
}

func (o ExecOptions) trajectories() int {
	if o.Trajectories <= 0 {
		return 8
	}
	return o.Trajectories
}

// shotsForSegment returns the (possibly growing) shot budget of segment
// index segIdx.
func (o ExecOptions) shotsForSegment(segIdx int) int {
	shots := o.Shots
	if shots <= 0 {
		shots = 1024
	}
	if o.ShotGrowth > 1 {
		// Closed form instead of an O(segIdx) multiply loop: this runs once
		// per (segment, run) on the sampled hot path. The cap is applied in
		// float: past 2^63 the int conversion would wrap negative.
		f := float64(shots) * math.Pow(o.ShotGrowth, float64(segIdx))
		cap := o.MaxShotsPerSegment
		if cap <= 0 {
			cap = 65536
		}
		if f > float64(cap) {
			shots = cap
		} else {
			shots = int(f)
		}
	}
	return shots
}

// opStats caches per-operator compiled metrics used by the noise and
// latency models.
type opStats struct {
	oneQ, twoQ int
	cx         int
	depth      int
	durationNS float64
}

// priceOperator measures tr's decomposed circuit on meter, which must be
// sized for len(tr.U) qubits. Every two-qubit native gate is a CX.
func priceOperator(tr Transition, meter *transpile.CostMeter) opStats {
	meter.Reset()
	tr.emitOperator(meter, 0.5)
	c := meter.Cost()
	return opStats{oneQ: c.OneQ, twoQ: c.CX, cx: c.CX, depth: c.Depth, durationNS: c.DurationNS}
}

// Executor runs a fixed schedule with variable evolution times. It is
// constructed once per solve: segmentation and per-operator compilation
// are offline, matching the paper's one-shot pruning/compile flow.
type Executor struct {
	p        *problems.Problem
	ops      []Transition
	segments [][]int // operator indices per segment
	stats    []opStats
	opts     ExecOptions
	// shotNS is the modeled time of one shot of each segment: its
	// operators' compiled durations, then readout and reset.
	shotNS []float64

	// SegmentDepths holds the compiled depth of each segment circuit.
	SegmentDepths []int
	// TotalCX is the compiled CX count of the full schedule.
	TotalCX int

	// Accounting for the most recent Run call.
	LastShotsUsed       int
	LastFeasibleShots   int
	LastMeasuredShots   int
	LastQuantumNS       float64
	LastSegmentsRun     int
	LastTerminatedEarly bool

	// EngineUsed is the engine actually selected at construction —
	// EngineCompiled, or EngineMap (possibly as a fallback, see
	// EngineFallbackReason).
	EngineUsed string
	// EngineFallbackReason explains why a requested/default compiled
	// engine fell back to the map engine ("" when it did not).
	EngineFallbackReason string

	// plan is the compiled-engine artifact (nil when EngineUsed ==
	// EngineMap); crt holds this clone's mutable flat buffers, lazily
	// allocated and never shared across clones. lastGoodDist backs
	// LastDistribution on the map path.
	plan         *compiledPlan
	crt          *compiledRT
	lastGoodDist map[bitvec.Vec]float64

	// Telemetry sink (SetTelemetry). Kept out of ExecOptions so the
	// canonical options fingerprint can never absorb a recorder. clk holds
	// this clone's segment and sample time since the last flushStages.
	spans     *obs.Recorder
	spanTrack int32
	clk       stageClock

	// workerLimit caps the kernel fan-out of this clone's compiled state
	// (0 = package default). Kept out of ExecOptions for the same reason
	// as the telemetry sink: widths never affect results or cache keys.
	workerLimit int
}

// SetWorkerLimit caps this executor's simulator parallelism; n <= 0
// restores the package default width. The solver calls it per clone when
// the solve holds a compute-budget lease, and again at every iteration
// boundary as the lease is renegotiated. Results are bit-identical at
// any limit.
func (e *Executor) SetWorkerLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.workerLimit = n
	if e.crt != nil {
		e.crt.st.SetWorkerLimit(n)
	}
}

// SetTelemetry points the executor's span output at rec (nil disables),
// writing its segment/sample spans to the given track. The solver calls
// this per clone so concurrent starts write disjoint tracks.
func (e *Executor) SetTelemetry(rec *obs.Recorder, track int32) {
	e.spans = rec
	e.spanTrack = track
}

// stageClock accumulates one executor clone's segment and sample time
// between flushes, so tracing costs a few clock reads per evaluation and
// two spans per flush rather than per segment.
type stageClock struct {
	mark            time.Duration // clock reading at the last lap
	segment, sample time.Duration
	pending         bool // an evaluation ran since the last flush
}

// startClock marks the start of an evaluation.
func (e *Executor) startClock() {
	if e.spans.Enabled() {
		e.clk.mark = e.spans.Now()
		e.clk.pending = true
	}
}

// lap adds the time since the last mark to *stage, one of e.clk's totals.
func (e *Executor) lap(stage *time.Duration) {
	if e.spans.Enabled() {
		now := e.spans.Now()
		*stage += now - e.clk.mark
		e.clk.mark = now
	}
}

// flushStages records the segment and sample time accumulated since the
// last flush as one span each under parent, back to back and ending at end,
// and resets the totals. The solver flushes each start's clone in its
// iteration hook and when the start ends, and the final evaluation under
// its final_eval span.
func (e *Executor) flushStages(parent obs.SpanID, end time.Duration) {
	if !e.spans.Enabled() || !e.clk.pending {
		return
	}
	mid := end - e.clk.sample
	e.spans.Record(obs.StageSegment, e.spanTrack, parent, mid-e.clk.segment, mid,
		obs.Attr{Key: obs.AttrEngine, Val: e.EngineUsed})
	e.spans.Record(obs.StageSample, e.spanTrack, parent, mid, end)
	e.clk = stageClock{}
}

// NewExecutor compiles the schedule and fixes the segmentation.
func NewExecutor(p *problems.Problem, ops []Transition, opts ExecOptions) (*Executor, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("core: empty schedule for %s", p.Name)
	}
	if !ValidEngine(opts.Engine) {
		return nil, fmt.Errorf("core: unknown engine %q (want %q or %q)", opts.Engine, EngineMap, EngineCompiled)
	}
	e := &Executor{p: p, ops: ops, opts: opts, EngineUsed: EngineMap}

	// Price each distinct operator once (structure is t-independent): the
	// meter measures its decomposition without building a circuit.
	e.stats = make([]opStats, len(ops))
	durations := transpile.DefaultDurations()
	if opts.Device != nil {
		durations = opts.Device.Durations
	}
	meter := transpile.NewCostMeter(p.N, durations)
	first := make(map[string]int, len(ops)) // vector → index of its first op
	for i, tr := range ops {
		k := vecKey(tr.U)
		if j, ok := first[k]; ok {
			e.stats[i] = e.stats[j]
		} else {
			first[k] = i
			e.stats[i] = priceOperator(tr, meter)
		}
		e.TotalCX += e.stats[i].cx
	}

	// Segmentation.
	switch {
	case opts.DisableSegmentation:
		all := make([]int, len(ops))
		for i := range all {
			all[i] = i
		}
		e.segments = [][]int{all}
	case opts.OpsPerSegment > 0:
		for i := 0; i < len(ops); i += opts.OpsPerSegment {
			j := i + opts.OpsPerSegment
			if j > len(ops) {
				j = len(ops)
			}
			seg := make([]int, 0, j-i)
			for k := i; k < j; k++ {
				seg = append(seg, k)
			}
			e.segments = append(e.segments, seg)
		}
	default:
		budget := opts.depthBudget()
		var seg []int
		segDepth := 0
		for i := range ops {
			d := e.stats[i].depth
			if len(seg) > 0 && segDepth+d > budget {
				e.segments = append(e.segments, seg)
				seg, segDepth = nil, 0
			}
			seg = append(seg, i)
			segDepth += d
		}
		if len(seg) > 0 {
			e.segments = append(e.segments, seg)
		}
	}
	for _, seg := range e.segments {
		d, ns := 0, 0.0
		for _, i := range seg {
			d += e.stats[i].depth
			ns += e.stats[i].durationNS
		}
		e.SegmentDepths = append(e.SegmentDepths, d)
		e.shotNS = append(e.shotNS, ns+durations.ReadoutNS+durations.ResetNS)
	}
	if opts.Engine != EngineMap {
		e.compileEngine()
	}
	return e, nil
}

// Clone returns an executor that shares the compiled schedule,
// segmentation, and per-operator stats (all read-only after construction)
// but has private run accounting, so clones can Run concurrently — the
// solver gives each optimizer start its own clone.
func (e *Executor) Clone() *Executor {
	c := *e
	c.LastShotsUsed = 0
	c.LastFeasibleShots = 0
	c.LastMeasuredShots = 0
	c.LastQuantumNS = 0
	c.LastSegmentsRun = 0
	c.LastTerminatedEarly = false
	// The compiled plan is shared read-only, but runtime buffers, the
	// last-distribution snapshot and the stage clock are per-clone state.
	c.crt = nil
	c.lastGoodDist = nil
	c.clk = stageClock{}
	return &c
}

// NumSegments returns how many segments execution is split into.
func (e *Executor) NumSegments() int { return len(e.segments) }

// NumParams returns the number of tunable evolution times.
func (e *Executor) NumParams() int { return len(e.ops) }

// MaxSegmentDepth returns the compiled depth of the deepest segment — the
// executable-depth figure reported in Table 2.
func (e *Executor) MaxSegmentDepth() int {
	max := 0
	for _, d := range e.SegmentDepths {
		if d > max {
			max = d
		}
	}
	return max
}

// Run executes the schedule with evolution times t (len == NumParams) and
// returns the final measured distribution over basis states. With
// Shots == 0 and no device it propagates exact probabilities; otherwise it
// samples `Shots` per segment, splitting them across the incoming basis
// states proportionally to their probability (Figure 7), injecting device
// noise by trajectory, and purifying between segments (Figure 8).
func (e *Executor) Run(t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	return e.RunCtx(context.Background(), t, rng)
}

// RunCtx is Run with cooperative cancellation: ctx is checked before every
// segment and between the per-input-state evolutions inside a segment, so a
// deadline frees the caller within one state's worth of work rather than a
// full schedule. A one-operator segment of the exact compiled path is a
// single sweep over the input distribution and is checked once. On
// cancellation the context's error is returned and the partial
// distribution is discarded.
func (e *Executor) RunCtx(ctx context.Context, t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	dist, _, err := e.runDist(ctx, t, rng)
	return dist, err
}

// runDist is RunCtx that also returns, on the compiled engine, the flat
// distribution over the plan's states that the map was built from. The
// flat slice aliases the executor's buffers until its next run; on the map
// engine it is nil.
func (e *Executor) runDist(ctx context.Context, t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, []float64, error) {
	if len(t) != len(e.ops) {
		return nil, nil, fmt.Errorf("core: %d times for %d operators", len(t), len(e.ops))
	}
	var dist map[bitvec.Vec]float64
	var flat []float64
	var err error
	if e.plan != nil {
		if flat, err = e.runCompiled(ctx, t, rng); err != nil {
			return nil, nil, err
		}
		dist = e.flatToMap(flat)
	} else if dist, err = e.runMap(ctx, t, rng); err != nil {
		return nil, nil, err
	}
	e.lap(&e.clk.sample)
	return dist, flat, nil
}

// runMap is the map engine's segment loop.
func (e *Executor) runMap(ctx context.Context, t []float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	e.LastShotsUsed = 0
	e.LastFeasibleShots = 0
	e.LastMeasuredShots = 0
	e.LastQuantumNS = 0
	e.LastSegmentsRun = 0
	e.LastTerminatedEarly = false
	e.startClock()
	defer e.lap(&e.clk.segment)

	dist := map[bitvec.Vec]float64{e.p.Init: 1}
	for segIdx, seg := range e.segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next map[bitvec.Vec]float64
		var err error
		if e.exact() {
			next, err = e.runSegmentExact(ctx, segIdx, seg, t, dist)
		} else {
			next, err = e.runSegmentSampled(ctx, segIdx, seg, t, dist, rng)
		}
		if err != nil {
			return nil, err
		}
		e.LastSegmentsRun++
		if len(next) == 0 {
			// All mass purified away: no feasible state survived the
			// noise. The paper's Figure 10(d)/14(b) failure mode.
			e.LastTerminatedEarly = true
			return nil, fmt.Errorf("core: %s: no feasible state survived segment %d", e.p.Name, e.LastSegmentsRun)
		}
		dist = next
	}
	return dist, nil
}

// runSegmentExact propagates exact probabilities: each incoming basis
// state evolves coherently through the segment, is "measured", and its
// outcome distribution is mixed in with the incoming weight. This is the
// Shots → ∞ limit of the sampled path.
func (e *Executor) runSegmentExact(ctx context.Context, segIdx int, seg []int, t []float64, in map[bitvec.Vec]float64) (map[bitvec.Vec]float64, error) {
	e.chargeExactSegment(segIdx)
	out := map[bitvec.Vec]float64{}
	for _, x := range sortedDistKeys(in) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := in[x]
		st := quantum.NewSparse(x)
		for _, i := range seg {
			st.ApplyTransition(e.ops[i].U, t[i])
		}
		probs := st.Probabilities()
		for _, y := range st.Support() {
			out[y] += w * probs[y]
		}
	}
	if !e.opts.DisablePurify {
		purifyDist(out, e.p)
	}
	normalizeDist(out)
	return out, nil
}

// runSegmentSampled is the hardware-path execution: shot allocation,
// trajectory noise, measurement, readout error, purification.
func (e *Executor) runSegmentSampled(ctx context.Context, segIdx int, seg []int, t []float64, in map[bitvec.Vec]float64, rng *rand.Rand) (map[bitvec.Vec]float64, error) {
	shots := e.opts.shotsForSegment(segIdx)
	counts := map[bitvec.Vec]int{}
	states := sortedDistKeys(in)
	var noise *quantum.NoiseModel
	if e.opts.Device != nil {
		noise = &e.opts.Device.Noise
	}
	for _, x := range states {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nx := int(float64(shots)*in[x] + 0.5)
		if nx == 0 {
			continue
		}
		e.LastShotsUsed += nx
		// Latency: every shot replays the segment circuit.
		e.LastQuantumNS += float64(nx) * e.shotNS[segIdx]

		traj := e.opts.trajectories()
		if noise == nil || noise.IsZero() {
			traj = 1
		}
		if traj > nx {
			traj = nx
		}
		base, extra := nx/traj, nx%traj
		for tr := 0; tr < traj; tr++ {
			n := base
			if tr < extra {
				n++
			}
			if n == 0 {
				continue
			}
			st := quantum.NewSparse(x)
			for _, i := range seg {
				st.ApplyTransition(e.ops[i].U, t[i])
				if noise != nil && !noise.IsZero() {
					e.injectOperatorNoise(st, i, rng)
				}
			}
			sampled := st.Sample(rng, n)
			// Sorted key order: readout flips consume rng, so map-iteration
			// order must not leak into the run's randomness.
			for _, y := range sortedCountKeys(sampled) {
				c := sampled[y]
				if noise != nil && noise.ReadoutError > 0 {
					for k := 0; k < c; k++ {
						counts[noise.ApplyReadout(y, rng)]++
					}
				} else {
					counts[y] += c
				}
			}
		}
	}
	e.lap(&e.clk.segment)
	if len(counts) == 0 {
		return nil, fmt.Errorf("core: %s: zero shots allocated in segment", e.p.Name)
	}
	out := map[bitvec.Vec]float64{}
	total := 0
	for y, c := range counts {
		total += c
		out[y] = float64(c)
		if e.p.Feasible(y) {
			e.LastFeasibleShots += c
		}
	}
	e.LastMeasuredShots += total
	if !e.opts.DisablePurify {
		purifyDist(out, e.p)
	}
	normalizeDist(out)
	e.lap(&e.clk.sample)
	return out, nil
}

// injectOperatorNoise applies the device's effective channels for one
// compiled operator to the trajectory state.
func (e *Executor) injectOperatorNoise(st *quantum.Sparse, opIdx int, rng *rand.Rand) {
	dev := e.opts.Device
	stats := e.stats[opIdx]
	eff := dev.OperatorNoise(stats.oneQ, stats.twoQ, stats.depth)
	support := e.ops[opIdx].Support()
	if len(support) == 0 {
		return
	}
	if eff.DepolProb > 0 && rng.Float64() < eff.DepolProb {
		q := support[rng.Intn(len(support))]
		switch rng.Intn(3) {
		case 0:
			st.ApplyX(q)
		case 1:
			st.ApplyY(q)
		default:
			st.ApplyZ(q)
		}
	}
	for _, q := range support {
		quantum.ApplyAmplitudeDampingSparse(st, q, eff.AmpDampGamma/float64(len(support)), rng)
		quantum.ApplyPhaseDampingSparse(st, q, eff.PhaseGamma/float64(len(support)), rng)
	}
}

func purifyDist(d map[bitvec.Vec]float64, p *problems.Problem) {
	for x := range d {
		if !p.Feasible(x) {
			delete(d, x)
		}
	}
}

func normalizeDist(d map[bitvec.Vec]float64) {
	// Sum in deterministic key order: map-iteration float addition would
	// make otherwise-identical runs diverge at the last ulp and send the
	// optimizer down different paths.
	s := 0.0
	for _, k := range sortedDistKeys(d) {
		s += d[k]
	}
	if s == 0 {
		return
	}
	for k := range d {
		d[k] /= s
	}
}

func sortedDistKeys(d map[bitvec.Vec]float64) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sortVecs(out)
	return out
}

func sortedCountKeys(d map[bitvec.Vec]int) []bitvec.Vec {
	out := make([]bitvec.Vec, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sortVecs(out)
	return out
}
