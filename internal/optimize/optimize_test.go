package optimize

import (
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

// shifted cosine landscape like a variational energy surface.
func cosSurface(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += math.Cos(v - 0.3*float64(i+1))
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	res := NelderMead(sphere, []float64{2, -3, 1}, Options{MaxIter: 400})
	if res.F > 1e-4 {
		t.Errorf("NelderMead sphere: f=%v", res.F)
	}
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	res := NelderMead(rosenbrock, []float64{-1, 1}, Options{MaxIter: 800})
	if res.F > 1e-2 {
		t.Errorf("NelderMead rosenbrock: f=%v at %v", res.F, res.X)
	}
}

func TestCOBYLASphere(t *testing.T) {
	res := COBYLA(sphere, []float64{1.5, -2}, Options{MaxIter: 400})
	if res.F > 1e-3 {
		t.Errorf("COBYLA sphere: f=%v", res.F)
	}
}

func TestCOBYLACosSurface(t *testing.T) {
	res := COBYLA(cosSurface, []float64{0.1, 0.1, 0.1, 0.1}, Options{MaxIter: 500})
	if res.F > -3.8 { // global min is -4
		t.Errorf("COBYLA cos surface: f=%v", res.F)
	}
}

func TestSPSASphere(t *testing.T) {
	res := SPSA(sphere, []float64{1, -1}, Options{MaxIter: 600, Seed: 3})
	if res.F > 0.05 {
		t.Errorf("SPSA sphere: f=%v", res.F)
	}
}

func TestEvalBudgetRespected(t *testing.T) {
	count := 0
	f := func(x []float64) float64 { count++; return sphere(x) }
	res := NelderMead(f, []float64{3, 3, 3, 3}, Options{MaxIter: 1000, MaxEvals: 50})
	if count > 50 {
		t.Errorf("budget exceeded: %d evals", count)
	}
	if res.Evals != count {
		t.Errorf("reported %d evals, actual %d", res.Evals, count)
	}
	count = 0
	COBYLA(f, []float64{3, 3}, Options{MaxIter: 1000, MaxEvals: 30})
	if count > 30 {
		t.Errorf("COBYLA budget exceeded: %d", count)
	}
	count = 0
	SPSA(f, []float64{3, 3}, Options{MaxIter: 1000, MaxEvals: 41, Seed: 1})
	if count > 41 {
		t.Errorf("SPSA budget exceeded: %d", count)
	}
}

func TestBestEverReported(t *testing.T) {
	// The optimizer must report the best point it evaluated, even if the
	// final iterate is worse.
	res := NelderMead(cosSurface, []float64{0.3, 0.3}, Options{MaxIter: 100})
	if res.F > cosSurface(res.X)+1e-12 {
		t.Error("reported F does not match reported X")
	}
}

func TestZeroDimension(t *testing.T) {
	called := false
	f := func(x []float64) float64 { called = true; return 7 }
	res := NelderMead(f, nil, Options{})
	if !called || res.F != 7 {
		t.Error("zero-dimensional objective mishandled")
	}
	res2 := COBYLA(f, nil, Options{})
	if res2.F != 7 {
		t.Error("COBYLA zero-dim mishandled")
	}
}

func TestMinimizeDispatch(t *testing.T) {
	for _, m := range []Method{MethodCOBYLA, MethodNelderMead, MethodSPSA, Method("bogus")} {
		res := Minimize(m, sphere, []float64{1}, Options{MaxIter: 50, Seed: 2})
		if math.IsInf(res.F, 0) || math.IsNaN(res.F) {
			t.Errorf("method %s returned %v", m, res.F)
		}
	}
}

func TestSPSADeterministicWithSeed(t *testing.T) {
	a := SPSA(sphere, []float64{1, 2}, Options{MaxIter: 50, Seed: 9})
	b := SPSA(sphere, []float64{1, 2}, Options{MaxIter: 50, Seed: 9})
	if a.F != b.F {
		t.Error("SPSA not deterministic for fixed seed")
	}
}

func TestPowellSphere(t *testing.T) {
	res := Powell(sphere, []float64{2, -3, 1}, Options{MaxIter: 60})
	if res.F > 1e-6 {
		t.Errorf("Powell sphere: f=%v", res.F)
	}
}

func TestPowellRosenbrock(t *testing.T) {
	res := Powell(rosenbrock, []float64{-1, 1}, Options{MaxIter: 200, MaxEvals: 8000})
	if res.F > 1e-2 {
		t.Errorf("Powell rosenbrock: f=%v at %v", res.F, res.X)
	}
}

func TestPowellCosSurface(t *testing.T) {
	res := Powell(cosSurface, []float64{0.1, 0.1, 0.1, 0.1}, Options{MaxIter: 120})
	if res.F > -3.9 {
		t.Errorf("Powell cos surface: f=%v", res.F)
	}
}

func TestPowellBudget(t *testing.T) {
	count := 0
	f := func(x []float64) float64 { count++; return sphere(x) }
	Powell(f, []float64{3, 3, 3}, Options{MaxIter: 1000, MaxEvals: 40})
	if count > 40 {
		t.Errorf("Powell budget exceeded: %d", count)
	}
}

func TestPowellZeroDim(t *testing.T) {
	res := Powell(func(x []float64) float64 { return 5 }, nil, Options{})
	if res.F != 5 {
		t.Error("Powell zero-dim wrong")
	}
}

func TestMinimizeDispatchPowell(t *testing.T) {
	res := Minimize(MethodPowell, sphere, []float64{1, 1}, Options{MaxIter: 40})
	if res.F > 1e-4 {
		t.Errorf("dispatching powell: f=%v", res.F)
	}
}

// TestCOBYLAIterationsAllocFlat gates COBYLA's iterations: a 30-iteration
// run, which both accepts candidates and resets its simplex, allocates
// what a 1-iteration run does, the run's buffers and nothing per
// iteration.
func TestCOBYLAIterationsAllocFlat(t *testing.T) {
	x0 := []float64{2.5, -1.5, 0.75, 1.25, -0.5}
	accepted, resets := 0, 0
	best := math.Inf(1)
	obs := Options{MaxIter: 30, Step: 0.5, OnIteration: func(_ int, bestF float64, _ []float64) {
		if bestF < best {
			accepted++
		} else {
			resets++
		}
		best = bestF
	}}
	if res := COBYLA(cosSurface, x0, obs); res.Iters != 30 || accepted == 0 || resets == 0 {
		t.Fatalf("the 30-iteration run ran %d iterations, %d improving and %d not; want 30 with both kinds", res.Iters, accepted, resets)
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			COBYLA(cosSurface, x0, Options{MaxIter: iters, Step: 0.5})
		})
	}
	if one, many := allocs(1), allocs(30); many != one {
		t.Fatalf("COBYLA allocates %v times over 30 iterations and %v over 1; want the same", many, one)
	}
}
