package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/device"
	"rasengan/internal/problems"
)

// enginePair builds two executors over the same problem and schedule that
// differ only in the Engine option.
func enginePair(t *testing.T, p *problems.Problem, opts ExecOptions) (mapEx, compEx *Executor) {
	t.Helper()
	ops := mustBasisAndSchedule(t, p)
	mo, co := opts, opts
	mo.Engine = EngineMap
	co.Engine = EngineCompiled
	var err error
	if mapEx, err = NewExecutor(p, ops, mo); err != nil {
		t.Fatal(err)
	}
	if compEx, err = NewExecutor(p, ops, co); err != nil {
		t.Fatal(err)
	}
	if mapEx.EngineUsed != EngineMap {
		t.Fatalf("map executor reports engine %q", mapEx.EngineUsed)
	}
	if compEx.EngineUsed != EngineCompiled {
		t.Fatalf("compiled executor fell back to %q: %s", compEx.EngineUsed, compEx.EngineFallbackReason)
	}
	return mapEx, compEx
}

func runBoth(t *testing.T, mapEx, compEx *Executor, seed int64) (dm, dc map[bitvec.Vec]float64) {
	t.Helper()
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.55 + 0.07*float64(i%4)
	}
	var err error
	if dm, err = mapEx.Run(times, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	if dc, err = compEx.Run(times, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return dm, dc
}

// TestCompiledEngineBitIdenticalExact: on the exact path the two engines
// must produce byte-identical distributions and energies — same support,
// same float64 probabilities, no tolerance. The table reaches one-operator
// sweeps and multi-operator segments (SCP-4's first default segment holds
// five operators), the angles at which the amplitude prune decides (at π/2,
// cos² ≈ 3.7e-33 falls under it), an all-zero operator, and a vector outside
// the constraint kernel, whose closure holds infeasible states that
// purification must remove.
func TestCompiledEngineBitIdenticalExact(t *testing.T) {
	schedules := []struct {
		name  string
		extra func(n int) []int64 // inserted after the first operator; nil: none
	}{
		{"kernel", nil},
		{"zero-op", func(n int) []int64 { return make([]int64, n) }},
		{"outside-kernel", func(n int) []int64 {
			u := make([]int64, n)
			u[0] = 1 // flipping one variable leaves the constraint kernel
			return u
		}},
	}
	options := []struct {
		name string
		opts ExecOptions
	}{
		{"default", ExecOptions{}},
		{"ops3", ExecOptions{OpsPerSegment: 3}},
		{"unsegmented", ExecOptions{DisableSegmentation: true}},
		{"no-purify", ExecOptions{DisablePurify: true}},
	}
	angles := []struct {
		name string
		at   func(i int) float64
	}{
		{"mixed", func(i int) float64 { return 0.55 + 0.07*float64(i%4) }},
		{"0", func(int) float64 { return 0 }},
		{"pi/2", func(int) float64 { return math.Pi / 2 }},
		{"pi", func(int) float64 { return math.Pi }},
	}
	for _, p := range []*problems.Problem{
		problems.FLP(2, 1),
		problems.SCP(4, 0),
		problems.KPP(3, 0),
	} {
		kernel := mustBasisAndSchedule(t, p)
		for _, sc := range schedules {
			ops := kernel
			if sc.extra != nil {
				ops = append([]Transition{kernel[0], {U: sc.extra(p.N)}}, kernel[1:]...)
			}
			for _, o := range options {
				mo, co := o.opts, o.opts
				mo.Engine = EngineMap
				mapEx, err := NewExecutor(p, ops, mo)
				if err != nil {
					t.Fatal(err)
				}
				compEx, err := NewExecutor(p, ops, co)
				if err != nil {
					t.Fatal(err)
				}
				if compEx.EngineUsed != EngineCompiled {
					t.Fatalf("%s/%s: compiled executor fell back: %s", p.Name, sc.name, compEx.EngineFallbackReason)
				}
				for _, a := range angles {
					name := p.Name + "/" + sc.name + "/" + o.name + "/t=" + a.name
					times := make([]float64, len(ops))
					for i := range times {
						times[i] = a.at(i)
					}
					checkEnginesBitIdentical(t, name, p, mapEx, compEx, times)
				}
			}
		}
	}
}

// checkEnginesBitIdentical runs one exact evaluation on both engines and
// compares, bit for bit, the distributions Run returns, the energies
// RunEnergyCtx returns, that energy against the distribution's sorted-order
// expectation, and the modeled accounting. A run that fails must fail the
// same way on both.
func checkEnginesBitIdentical(t *testing.T, name string, p *problems.Problem, mapEx, compEx *Executor, times []float64) {
	t.Helper()
	ctx := context.Background()
	dm, errM := mapEx.Run(times, nil)
	dc, errC := compEx.Run(times, nil)
	if (errM == nil) != (errC == nil) || (errM != nil && errM.Error() != errC.Error()) {
		t.Fatalf("%s: map error %v vs compiled error %v", name, errM, errC)
	}
	if errM != nil {
		return
	}
	if len(dm) != len(dc) {
		t.Fatalf("%s: support %d (map) vs %d (compiled)", name, len(dm), len(dc))
	}
	for x, pm := range dm {
		if pc, ok := dc[x]; !ok || math.Float64bits(pc) != math.Float64bits(pm) {
			t.Fatalf("%s: state %v: map %v vs compiled %v", name, x, pm, dc[x])
		}
	}
	if mapEx.LastQuantumNS != compEx.LastQuantumNS || mapEx.LastShotsUsed != compEx.LastShotsUsed {
		t.Fatalf("%s: accounting diverges: map (%v ns, %d shots) vs compiled (%v ns, %d shots)", name,
			mapEx.LastQuantumNS, mapEx.LastShotsUsed, compEx.LastQuantumNS, compEx.LastShotsUsed)
	}
	want := 0.0
	for _, x := range sortedDistKeys(dc) {
		want += dc[x] * p.ScoreMin(x)
	}
	for _, ex := range []*Executor{mapEx, compEx} {
		got, err := ex.RunEnergyCtx(ctx, times, nil)
		if err != nil {
			t.Fatalf("%s: %s RunEnergyCtx: %v", name, ex.EngineUsed, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s RunEnergyCtx %v vs distribution energy %v", name, ex.EngineUsed, got, want)
		}
	}
}

// TestCompiledEngineBitIdenticalSampled: the sampled path consumes the rng
// in the same order on both engines, so equal seeds give equal counts and
// therefore bit-identical distributions — including under shot growth.
func TestCompiledEngineBitIdenticalSampled(t *testing.T) {
	p := problems.FLP(2, 0)
	mapEx, compEx := enginePair(t, p, ExecOptions{Shots: 512, OpsPerSegment: 1, ShotGrowth: 2, MaxShotsPerSegment: 4096})
	dm, dc := runBoth(t, mapEx, compEx, 23)
	if len(dm) != len(dc) {
		t.Fatalf("support %d (map) vs %d (compiled)", len(dm), len(dc))
	}
	for x, pm := range dm {
		if dc[x] != pm {
			t.Fatalf("state %v: map %v vs compiled %v", x, pm, dc[x])
		}
	}
	if mapEx.LastShotsUsed != compEx.LastShotsUsed ||
		mapEx.LastFeasibleShots != compEx.LastFeasibleShots ||
		mapEx.LastMeasuredShots != compEx.LastMeasuredShots {
		t.Fatalf("shot accounting diverges: map (%d,%d,%d) vs compiled (%d,%d,%d)",
			mapEx.LastShotsUsed, mapEx.LastFeasibleShots, mapEx.LastMeasuredShots,
			compEx.LastShotsUsed, compEx.LastFeasibleShots, compEx.LastMeasuredShots)
	}
}

// TestRunEnergyMatchesDistribution: RunEnergyCtx must equal the expected
// score of the distribution Run returns, on both engines, and
// LastDistribution must reproduce that distribution exactly.
func TestRunEnergyMatchesDistribution(t *testing.T) {
	p := problems.SCP(4, 0)
	mapEx, compEx := enginePair(t, p, ExecOptions{})
	times := make([]float64, mapEx.NumParams())
	for i := range times {
		times[i] = 0.8
	}
	for _, ex := range []*Executor{mapEx, compEx} {
		dist, err := ex.Run(times, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for x, v := range dist {
			want += v * p.ScoreMin(x)
		}
		got, err := ex.RunEnergyCtx(context.Background(), times, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("engine %s: RunEnergy %v vs expected score %v", ex.EngineUsed, got, want)
		}
		last := ex.LastDistribution()
		if len(last) != len(dist) {
			t.Fatalf("engine %s: LastDistribution support %d vs %d", ex.EngineUsed, len(last), len(dist))
		}
		for x, v := range dist {
			if last[x] != v {
				t.Fatalf("engine %s: LastDistribution[%v] = %v, want %v", ex.EngineUsed, x, last[x], v)
			}
		}
	}
}

// TestRunEnergyZeroAllocs: a steady-state compiled evaluation allocates
// nothing, whether its segments are one-operator sweeps (FLP-3) or include a
// five-operator segment (SCP-4), and whether it moves the first time, so
// every segment recomputes, or only the last, so the evaluation restarts
// from the kept boundary before it.
func TestRunEnergyZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		p      *problems.Problem
		maxSeg int // longest default segment
	}{
		{problems.FLP(3, 0), 1},
		{problems.SCP(4, 0), 5},
	} {
		ex, err := NewExecutor(tc.p, mustBasisAndSchedule(t, tc.p), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.EngineUsed != EngineCompiled {
			t.Fatalf("%s: compiled executor fell back: %s", tc.p.Name, ex.EngineFallbackReason)
		}
		longest := 0
		for _, seg := range ex.segments {
			longest = max(longest, len(seg))
		}
		if longest != tc.maxSeg {
			t.Fatalf("%s: longest segment holds %d operators, want %d", tc.p.Name, longest, tc.maxSeg)
		}
		times := make([]float64, ex.NumParams())
		for i := range times {
			times[i] = 0.55 + 0.07*float64(i%4)
		}
		ctx := context.Background()
		for _, k := range []int{0, len(times) - 1} {
			step := 0.1
			eval := func() {
				times[k] += step
				step = -step
				if _, err := ex.RunEnergyCtx(ctx, times, nil); err != nil {
					t.Fatal(err)
				}
			}
			eval() // warm-up: the clone's buffers are allocated on first use
			if allocs := testing.AllocsPerRun(20, eval); allocs != 0 {
				t.Errorf("%s: RunEnergyCtx moving time %d allocates %v times per run; want 0", tc.p.Name, k, allocs)
			}
		}
	}
}

// TestCompiledFallsBackOnNoisyDevice: noise channels can leave the feasible
// subspace, so a noisy device must silently select the map engine and say
// why.
func TestCompiledFallsBackOnNoisyDevice(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{Device: device.Kyiv(), Shots: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineMap {
		t.Fatalf("noisy device ran engine %q", ex.EngineUsed)
	}
	if ex.EngineFallbackReason == "" {
		t.Fatal("fallback reason not recorded")
	}
	// A noiseless device keeps the compiled engine.
	ex2, err := NewExecutor(p, ops, ExecOptions{Device: device.Noiseless(p.N), Shots: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ex2.EngineUsed != EngineCompiled {
		t.Fatalf("noiseless device fell back to %q: %s", ex2.EngineUsed, ex2.EngineFallbackReason)
	}
}

// TestUnknownEngineRejected: a typo'd engine name is a construction-time
// error, not a silent default.
func TestUnknownEngineRejected(t *testing.T) {
	p := problems.FLP(1, 0)
	ops := mustBasisAndSchedule(t, p)
	if _, err := NewExecutor(p, ops, ExecOptions{Engine: "dense"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestEngineExcludedFromFingerprint: both engines are bit-identical, so the
// engine choice must not split the result cache, mirroring worker count.
func TestEngineExcludedFromFingerprint(t *testing.T) {
	a := Options{Exec: ExecOptions{Engine: EngineMap}}
	b := Options{Exec: ExecOptions{Engine: EngineCompiled}}
	ja := CanonicalOptionsJSON(a)
	jb := CanonicalOptionsJSON(b)
	if string(ja) != string(jb) {
		t.Fatalf("engine leaks into the options fingerprint:\n%s\nvs\n%s", ja, jb)
	}
}

// TestCompiledCloneIndependent: clones share the immutable plan but own
// their runtime state, so concurrent-style interleaved runs don't bleed.
func TestCompiledCloneIndependent(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := ex.Clone()
	if cl.plan != ex.plan {
		t.Fatal("clone rebuilt the compiled plan")
	}
	times := make([]float64, ex.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	d1, err := ex.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cl.Run(times, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for x, v := range d1 {
		if d2[x] != v {
			t.Fatalf("clone diverges at %v: %v vs %v", x, d2[x], v)
		}
	}
}

// TestCompiledRunCancelled: a pre-cancelled context must abort the compiled
// path with the context's error, same as the map path.
func TestCompiledRunCancelled(t *testing.T) {
	p := problems.FLP(2, 0)
	ops := mustBasisAndSchedule(t, p)
	ex, err := NewExecutor(p, ops, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EngineUsed != EngineCompiled {
		t.Fatalf("expected compiled engine, got %q", ex.EngineUsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	times := make([]float64, ex.NumParams())
	for i := range times {
		times[i] = 0.6
	}
	if _, err := ex.RunCtx(ctx, times, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("cancelled context did not abort the compiled run")
	}
}

// TestFinalTallyFromPlanMatchesMap checks the result tally read from the
// compiled plan's tables against the one read from the map engine's
// sorted distribution, on runs whose final distribution holds infeasible
// states: a one-bit flip operator leaves the feasible set, and
// purification is off. Both senses, bitwise.
func TestFinalTallyFromPlanMatchesMap(t *testing.T) {
	for _, sense := range []problems.Sense{problems.Minimize, problems.Maximize} {
		p := *problems.FLP(1, 0)
		p.Sense = sense
		flip := make([]int64, p.N)
		flip[0] = 1
		ops := append([]Transition{{U: flip}}, mustBasisAndSchedule(t, &p)...)
		opts := ExecOptions{DisablePurify: true}
		compiled, err := NewExecutor(&p, ops, opts)
		if err != nil {
			t.Fatal(err)
		}
		if compiled.plan == nil || compiled.plan.allFeasible {
			t.Fatal("the compiled closure holds no infeasible state")
		}
		opts.Engine = EngineMap
		mapped, err := NewExecutor(&p, ops, opts)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, len(ops))
		for i := range times {
			times[i] = 0.3 + 0.11*float64(i)
		}
		ctx := context.Background()
		dist, flat, err := compiled.runDist(ctx, times, nil)
		if err != nil {
			t.Fatal(err)
		}
		mdist, mflat, err := mapped.runDist(ctx, times, nil)
		if err != nil || mflat != nil {
			t.Fatalf("map engine: flat %v, err %v", mflat, err)
		}
		got := tallyFinal(&p, compiled.plan, dist, flat)
		want := tallyFinal(&p, nil, mdist, nil)
		if got != want {
			t.Fatalf("%v: plan tally %+v, map tally %+v", sense, got, want)
		}
		if got.inRate >= 1 {
			t.Fatalf("%v: in-constraints mass %v; the run kept no infeasible state", sense, got.inRate)
		}
	}
}
