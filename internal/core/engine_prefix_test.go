package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/problems"
)

// tripCtx reports cancellation from its (left+1)-th Err call on.
type tripCtx struct {
	context.Context
	left int
}

func (c *tripCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// evalStep is one evaluation of a reuse sequence.
type evalStep struct {
	times []float64
	// energy selects RunEnergyCtx, else RunCtx; both selects RunEnergyCtx
	// followed by RunCtx at the same times.
	energy, both bool
	// trip, when positive, cancels the run at its trip-th ctx.Err call.
	trip int
}

// evalOutcome is everything a run reports but its distribution, with
// floats as their bits so == compares them bitwise.
type evalOutcome struct {
	energy     uint64
	support    int
	err        string
	shots      int
	feasible   int
	measured   int
	quantumNS  uint64
	segments   int
	terminated bool
}

func runStep(ex *Executor, t []float64, energy bool, trip int) (evalOutcome, map[bitvec.Vec]float64) {
	var ctx context.Context = context.Background()
	if trip > 0 {
		ctx = &tripCtx{Context: ctx, left: trip - 1}
	}
	var o evalOutcome
	var dist map[bitvec.Vec]float64
	var err error
	if energy {
		var v float64
		v, err = ex.RunEnergyCtx(ctx, t, nil)
		o.energy = math.Float64bits(v)
	} else {
		dist, err = ex.RunCtx(ctx, t, nil)
		o.support = len(dist)
	}
	if err != nil {
		o.err = err.Error()
		if errors.Is(err, context.Canceled) {
			o.err = "canceled"
		}
	}
	o.shots, o.feasible, o.measured = ex.LastShotsUsed, ex.LastFeasibleShots, ex.LastMeasuredShots
	o.quantumNS = math.Float64bits(ex.LastQuantumNS)
	o.segments, o.terminated = ex.LastSegmentsRun, ex.LastTerminatedEarly
	return o, dist
}

func sameDist(a, b map[bitvec.Vec]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for x, v := range a {
		w, ok := b[x]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func (o evalOutcome) String() string {
	return fmt.Sprintf("energy=%x err=%q shots=%d feasible=%d measured=%d quantumNS=%x segments=%d terminated=%v support=%d",
		o.energy, o.err, o.shots, o.feasible, o.measured, o.quantumNS, o.segments, o.terminated, o.support)
}

// reuseSequence builds the evaluations every case runs: a base point and
// its repeat, COBYLA's simplex pattern (one coordinate moved per call, in
// order), cumulative one-coordinate moves from the last position down,
// full changes, signed zeros, NaN and ±Inf times, a run cancelled midway
// after a change at the first position, and a seeded random walk of
// one-coordinate moves. extra appends case-specific steps.
func reuseSequence(n int, trip int, extra func(base []float64) []evalStep) []evalStep {
	base := make([]float64, n)
	for i := range base {
		base[i] = 0.55 + 0.07*float64(i%4)
	}
	with := func(src []float64, k int, v float64) []float64 {
		t := append([]float64(nil), src...)
		t[k] = v
		return t
	}
	var seq []evalStep
	add := func(t []float64) {
		k := len(seq)
		seq = append(seq, evalStep{times: t, energy: k%3 != 1, both: k%3 == 2})
	}
	add(base)
	add(base)
	for k := 0; k < n; k++ {
		add(with(base, k, base[k]+math.Pi/8))
	}
	add(base)
	cur := base
	for k := n - 1; k >= 0; k-- {
		cur = with(cur, k, cur[k]-0.3)
		add(cur)
	}
	add(cur)
	full := make([]float64, n)
	for i := range full {
		full[i] = 1.1 - 0.05*float64(i%5)
	}
	add(full)
	add(base)
	mid := n / 2
	add(with(base, mid, 0))
	add(with(base, mid, math.Copysign(0, -1)))
	add(with(base, mid, math.NaN()))
	add(base)
	add(with(base, 0, math.Inf(1)))
	add(with(base, n-1, math.Inf(-1)))
	add(base)
	// Cancelled midway after a change at position 0, so the reusing clone
	// recomputes from the seed and trips where a fresh clone trips; the
	// next runs change only later positions.
	seq = append(seq, evalStep{times: with(base, 0, 0.2), energy: true, trip: trip})
	add(with(base, n-1, 0.9))
	seq = append(seq, evalStep{times: with(base, 0, 0.3), trip: trip})
	add(with(with(base, 0, 0.3), n-1, 0.8))
	rng := rand.New(rand.NewSource(11))
	cur = base
	for i := 0; i < 3*n; i++ {
		k := rng.Intn(n)
		cur = with(cur, k, rng.Float64()*math.Pi)
		add(cur)
		if i%5 == 4 {
			add(cur)
		}
	}
	if extra != nil {
		for _, st := range extra(base) {
			k := len(seq)
			st.energy, st.both = k%3 != 1, k%3 == 2
			seq = append(seq, st)
		}
	}
	return seq
}

// TestPrefixReuseMatchesFreshClone runs evaluation sequences on one clone,
// which reuses the segment boundaries its earlier runs left, and compares
// every evaluation bitwise with a fresh clone that recomputes everything:
// energy, the RunCtx map, LastDistribution, the Last* accounting and the
// error. The cases reach one-operator sweeps and S4's five-operator
// segment, fixed three-operator segments, one unsegmented circuit,
// disabled purification, a schedule whose π/2 step purifies all mass
// away, and kept boundaries spaced past one (as the snapshot bound forces
// on large spaces), including a spacing that keeps only the seed.
func TestPrefixReuseMatchesFreshClone(t *testing.T) {
	outside := func(p *problems.Problem) []Transition {
		ops := mustBasisAndSchedule(t, p)
		u := make([]int64, p.N)
		u[0] = 1 // flipping one variable leaves the constraint kernel
		return append([]Transition{ops[0], {U: u}}, ops[1:]...)
	}
	cases := []struct {
		name   string
		p      *problems.Problem
		ops    func(p *problems.Problem) []Transition
		opts   ExecOptions
		stride int // 0: the executor's own
		trip   int
		// purgeAt, when ≥ 0, adds steps that set this operator's time to
		// π/2, which must purify all mass away.
		purgeAt int
	}{
		{name: "F4", p: problems.FLP(4, 0), trip: 5, purgeAt: -1},
		{name: "S4", p: problems.SCP(4, 0), trip: 4, purgeAt: -1},
		{name: "S4/ops3", p: problems.SCP(4, 0), opts: ExecOptions{OpsPerSegment: 3}, trip: 6, purgeAt: -1},
		{name: "K4/unsegmented", p: problems.KPP(4, 0), opts: ExecOptions{DisableSegmentation: true}, trip: 2, purgeAt: -1},
		{name: "G3/no-purify", p: problems.GCP(3, 0), opts: ExecOptions{DisablePurify: true}, trip: 4, purgeAt: -1},
		{name: "F2/purge", p: problems.FLP(2, 1), ops: outside, trip: 4, purgeAt: 1},
		{name: "F2/purge/no-purify", p: problems.FLP(2, 1), ops: outside, opts: ExecOptions{DisablePurify: true}, trip: 4, purgeAt: 1},
		{name: "F4/stride2", p: problems.FLP(4, 0), stride: 2, trip: 5, purgeAt: -1},
		{name: "S4/stride3", p: problems.SCP(4, 0), stride: 3, trip: 4, purgeAt: -1},
		{name: "F2/purge/stride2", p: problems.FLP(2, 1), ops: outside, stride: 2, trip: 4, purgeAt: 1},
		{name: "K4/seed-only", p: problems.KPP(4, 0), stride: -1, trip: 5, purgeAt: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ops []Transition
			if tc.ops != nil {
				ops = tc.ops(tc.p)
			} else {
				ops = mustBasisAndSchedule(t, tc.p)
			}
			ref, err := NewExecutor(tc.p, ops, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.EngineUsed != EngineCompiled {
				t.Fatalf("compiled executor fell back: %s", ref.EngineFallbackReason)
			}
			reuse, err := NewExecutor(tc.p, ops, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.stride > 0:
				reuse.plan.stride = tc.stride
			case tc.stride < 0:
				reuse.plan.stride = reuse.NumSegments() + 1
			}
			if tc.stride == 0 && reuse.plan.stride != 1 {
				t.Fatalf("suite-sized space keeps every %d-th boundary, want every one", reuse.plan.stride)
			}
			ex := reuse.Clone()
			n := ex.NumParams()
			var extra func([]float64) []evalStep
			if tc.purgeAt >= 0 {
				extra = func(base []float64) []evalStep {
					purged := append([]float64(nil), base...)
					purged[tc.purgeAt] = math.Pi / 2
					later := append([]float64(nil), purged...)
					later[n-1] = 0.4
					return []evalStep{{times: base}, {times: purged}, {times: purged}, {times: later}, {times: base}, {times: later}}
				}
			}
			purged := false
			var lastGood map[bitvec.Vec]float64
			for i, st := range reuseSequence(n, tc.trip, extra) {
				calls := []bool{st.energy}
				if st.both {
					calls = []bool{true, false}
				}
				for _, energy := range calls {
					got, gotDist := runStep(ex, st.times, energy, st.trip)
					want, wantDist := runStep(ref.Clone(), st.times, energy, st.trip)
					if got != want || !sameDist(gotDist, wantDist) {
						t.Fatalf("step %d (energy=%v times=%v):\n reuse %v\n fresh %v", i, energy, st.times, got, want)
					}
					if st.trip > 0 && got.err != "canceled" {
						t.Fatalf("step %d: trip %d did not cancel the run (%v)", i, st.trip, got)
					}
					if st.trip > 0 && got.segments == 0 && ex.NumSegments() > 1 {
						t.Fatalf("step %d: trip %d cancelled before any segment ran", i, st.trip)
					}
					purged = purged || got.terminated
					if !energy {
						continue
					}
					if got.err == "" {
						lastGood = ex.LastDistribution()
						fresh := ref.Clone()
						runStep(fresh, st.times, true, 0)
						if !sameDist(lastGood, fresh.LastDistribution()) {
							t.Fatalf("step %d: LastDistribution differs from a fresh clone's", i)
						}
					} else if !sameDist(ex.LastDistribution(), lastGood) {
						t.Fatalf("step %d: a failed run changed LastDistribution", i)
					}
				}
			}
			if want := tc.purgeAt >= 0 && !tc.opts.DisablePurify; purged != want {
				t.Fatalf("purified-away run seen = %v, want %v", purged, want)
			}
		})
	}
}

// TestSnapshotStride pins the bound on kept boundaries: every boundary
// while (segments+1)·states fits 2^20 floats, else the smallest spacing
// that fits.
func TestSnapshotStride(t *testing.T) {
	for _, tc := range []struct{ segs, states, want int }{
		{18, 100, 1},
		{0, 1, 1},
		{15, 1 << 16, 1},
		{16, 1 << 16, 2},
		{99, 1 << 17, 13},
	} {
		if got := snapshotStride(tc.segs, tc.states); got != tc.want {
			t.Errorf("snapshotStride(%d, %d) = %d, want %d", tc.segs, tc.states, got, tc.want)
		}
	}
	// Across the suite the largest (segments+1)·states is far below the
	// bound, so every suite executor keeps every boundary.
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			ex, err := NewExecutor(p, mustBasisAndSchedule(t, p), ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ex.plan != nil && ex.plan.stride != 1 {
				t.Errorf("%s: stride %d", p.Name, ex.plan.stride)
			}
		}
	}
}
