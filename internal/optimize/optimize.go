// Package optimize provides the derivative-free classical optimizers that
// drive the variational loops: a COBYLA-style linear-approximation
// trust-region method (the paper's parameter updater, Powell 1994), the
// Nelder-Mead simplex, and SPSA. All minimize a black-box function of a
// real parameter vector under an evaluation budget.
package optimize

import (
	"context"
	"math"
	"math/rand"
)

// Result reports the outcome of an optimization run.
type Result struct {
	X     []float64 // best parameters found
	F     float64   // best objective value
	Evals int       // objective evaluations spent
	Iters int       // optimizer iterations
}

// Options configures an optimizer run.
type Options struct {
	MaxIter  int     // iteration cap (default 100)
	MaxEvals int     // objective evaluation cap (0 = derived from MaxIter)
	TolF     float64 // stop when the working set's spread falls below TolF
	Step     float64 // initial step / trust radius (default 0.5)
	Seed     int64   // rng seed for stochastic methods

	// Ctx, when non-nil, is checked once per optimizer iteration: a done
	// context stops the loop at the next iteration boundary and the best
	// point seen so far is returned. The caller decides whether an early
	// stop is an error (core.Solve surfaces ctx.Err()).
	Ctx context.Context

	// OnIteration, when non-nil, is invoked at the end of every optimizer
	// iteration with the 0-based iteration index, the best objective value
	// seen so far, and the best parameter vector so far. It is purely
	// observational — convergence telemetry and span recording hang off
	// it — and must not mutate bestX (the slice is borrowed; copy before
	// retaining).
	OnIteration func(iter int, bestF float64, bestX []float64)

	// OnSnapshot, when non-nil, is invoked right after OnIteration at
	// every boundary the loop will continue past, with a self-contained
	// deep-copied State. Feeding that State back through Resume continues
	// the run bit-identically: the same remaining evaluation sequence,
	// the same Result. Boundaries at which the optimizer is about to stop
	// are deliberately not snapshotted — resuming past a stopping
	// decision would run iterations the uninterrupted run never ran.
	// When nil (the default) the checkpoint path costs one nil check per
	// iteration and allocates nothing.
	OnSnapshot func(s *State)

	// Resume, when non-nil and produced by the same method at the same
	// dimension, restores the optimizer mid-run instead of starting from
	// x0 (x0 is then ignored, as are the initial-evaluation costs already
	// accounted inside the snapshot). A snapshot from another method or
	// dimension is ignored; callers that need loud failure validate
	// before invoking (see core.Checkpoint.Validate).
	Resume *State
}

// iterDone fires the OnIteration observer for one completed iteration.
func (o Options) iterDone(iter int, bf *budgetFn) {
	if o.OnIteration != nil {
		o.OnIteration(iter, bf.bestF, bf.bestX)
	}
}

// cancelled reports whether the run's context is done.
func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) withDefaults(n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = o.MaxIter * (n + 2)
	}
	if o.TolF <= 0 {
		o.TolF = 1e-8
	}
	if o.Step <= 0 {
		o.Step = 0.5
	}
	return o
}

// Objective is a black-box function to minimize.
type Objective func(x []float64) float64

// budgetFn wraps an objective with an evaluation counter and cache of the
// best point seen, so every optimizer reports honestly even if it ends on
// a worse iterate. An improved point is copied into bestX's one buffer.
type budgetFn struct {
	f     Objective
	evals int
	max   int
	bestX []float64
	bestF float64
}

func newBudgetFn(f Objective, max int) *budgetFn {
	return &budgetFn{f: f, max: max, bestF: math.Inf(1)}
}

func (b *budgetFn) call(x []float64) (float64, bool) {
	if b.evals >= b.max {
		return math.Inf(1), false
	}
	b.evals++
	v := b.f(x)
	if v < b.bestF {
		b.bestF = v
		b.bestX = append(b.bestX[:0], x...)
	}
	return v, true
}

// NelderMead minimizes f starting at x0 with the adaptive simplex method.
func NelderMead(f Objective, x0 []float64, opts Options) Result {
	n := len(x0)
	opts = opts.withDefaults(n)
	bf := newBudgetFn(f, opts.MaxEvals)
	if n == 0 {
		v, _ := bf.call(nil)
		return Result{X: nil, F: v, Evals: bf.evals}
	}

	var pts [][]float64
	var vals []float64
	startIter := 0
	if st := opts.Resume; st.resumable(MethodNelderMead, n) {
		pts = clonePoints(st.Points)
		vals = append([]float64(nil), st.Values...)
		bf.restore(st)
		startIter = st.Iter
	} else {
		// Initial simplex: x0 plus a step along each axis.
		pts = make([][]float64, n+1)
		vals = make([]float64, n+1)
		pts[0] = append([]float64(nil), x0...)
		vals[0], _ = bf.call(pts[0])
		for i := 0; i < n; i++ {
			p := append([]float64(nil), x0...)
			p[i] += opts.Step
			pts[i+1] = p
			vals[i+1], _ = bf.call(p)
		}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	iters := startIter
	for ; iters < opts.MaxIter && bf.evals < opts.MaxEvals; iters++ {
		if opts.cancelled() {
			break
		}
		order(pts, vals)
		if vals[n]-vals[0] < opts.TolF {
			break
		}
		// Centroid of all but worst.
		cen := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += pts[i][j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		refl := lincomb(cen, pts[n], 1+alpha, -alpha)
		fr, ok := bf.call(refl)
		if !ok {
			break
		}
		switch {
		case fr < vals[0]:
			exp := lincomb(cen, pts[n], 1+gamma, -gamma)
			fe, ok2 := bf.call(exp)
			if ok2 && fe < fr {
				pts[n], vals[n] = exp, fe
			} else {
				pts[n], vals[n] = refl, fr
			}
		case fr < vals[n-1]:
			pts[n], vals[n] = refl, fr
		default:
			con := lincomb(cen, pts[n], 1-rho, rho)
			fc, ok2 := bf.call(con)
			if ok2 && fc < vals[n] {
				pts[n], vals[n] = con, fc
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					pts[i] = lincomb(pts[0], pts[i], 1-sigma, sigma)
					vals[i], _ = bf.call(pts[i])
				}
			}
		}
		opts.iterDone(iters, bf)
		if opts.OnSnapshot != nil {
			st := &State{Method: string(MethodNelderMead), Dim: n, Iter: iters + 1,
				Points: clonePoints(pts), Values: append([]float64(nil), vals...)}
			st.fillBudget(bf)
			opts.OnSnapshot(st)
		}
	}
	order(pts, vals)
	return Result{X: bf.bestX, F: bf.bestF, Evals: bf.evals, Iters: iters}
}

func order(pts [][]float64, vals []float64) {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

func lincomb(a, b []float64, ca, cb float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = ca*a[i] + cb*b[i]
	}
	return out
}

// COBYLA minimizes f with a linear-approximation trust-region scheme in
// the spirit of Powell's COBYLA (the unconstrained specialization: the
// variational loops fold constraints into the objective already). A
// linear model is fit over a simplex of n+1 points and minimized within
// the trust radius; the radius contracts when the model stops improving.
//
// An iteration allocates nothing: the simplex rows, the gradient and the
// candidate are buffers of the run, an accepted candidate trades buffers
// with the worst row, and a reset rewrites the rows in place. The
// objective may therefore not retain the slice it is passed.
func COBYLA(f Objective, x0 []float64, opts Options) Result {
	n := len(x0)
	opts = opts.withDefaults(n)
	bf := newBudgetFn(f, opts.MaxEvals)
	if n == 0 {
		v, _ := bf.call(nil)
		return Result{X: nil, F: v, Evals: bf.evals}
	}
	var pts [][]float64
	var vals []float64
	radius := opts.Step
	startIter := 0
	if st := opts.Resume; st.resumable(MethodCOBYLA, n) {
		pts = clonePoints(st.Points)
		vals = append([]float64(nil), st.Values...)
		radius = st.Radius
		bf.restore(st)
		startIter = st.Iter
	} else {
		pts = make([][]float64, n+1)
		vals = make([]float64, n+1)
		pts[0] = append([]float64(nil), x0...)
		vals[0], _ = bf.call(pts[0])
		for i := 0; i < n; i++ {
			p := append([]float64(nil), x0...)
			p[i] += opts.Step
			pts[i+1] = p
			vals[i+1], _ = bf.call(p)
		}
	}
	const minRadius = 1e-7
	g := make([]float64, n)
	cand := make([]float64, n)
	iters := startIter
	for ; iters < opts.MaxIter && bf.evals < opts.MaxEvals && radius > minRadius; iters++ {
		if opts.cancelled() {
			break
		}
		order(pts, vals)
		// Linear model gradient from simplex differences: g solves
		// (p_i − p_0)·g = f_i − f_0 approximately (coordinate fit).
		clear(g)
		for i := 1; i <= n; i++ {
			d := 0.0
			var axis int
			for j := 0; j < n; j++ {
				dj := pts[i][j] - pts[0][j]
				if math.Abs(dj) > math.Abs(d) {
					d, axis = dj, j
				}
			}
			if d != 0 {
				g[axis] = (vals[i] - vals[0]) / d
			}
		}
		nrm := 0.0
		for _, gi := range g {
			nrm += gi * gi
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-15 {
			radius *= 0.5
			resetSimplex(bf, pts, vals, radius)
			opts.iterDone(iters, bf)
			opts.snapshotCOBYLA(iters+1, bf, pts, vals, radius)
			continue
		}
		// Candidate: steepest descent step of length radius from best.
		for j := range cand {
			cand[j] = pts[0][j] - radius*g[j]/nrm
		}
		fc, ok := bf.call(cand)
		if !ok {
			break
		}
		if fc < vals[0]-opts.TolF {
			// Replace worst vertex; keep the simplex around the new best.
			pts[n], cand = cand, pts[n]
			vals[n] = fc
		} else {
			radius *= 0.5
			resetSimplex(bf, pts, vals, radius)
		}
		opts.iterDone(iters, bf)
		opts.snapshotCOBYLA(iters+1, bf, pts, vals, radius)
	}
	return Result{X: bf.bestX, F: bf.bestF, Evals: bf.evals, Iters: iters}
}

// snapshotCOBYLA exports a COBYLA boundary snapshot (no-op when
// checkpointing is off; plain-value arguments keep the disabled path
// allocation-free).
func (o Options) snapshotCOBYLA(iter int, bf *budgetFn, pts [][]float64, vals []float64, radius float64) {
	if o.OnSnapshot == nil {
		return
	}
	st := &State{Method: string(MethodCOBYLA), Dim: len(pts) - 1, Iter: iter,
		Points: clonePoints(pts), Values: append([]float64(nil), vals...), Radius: radius}
	st.fillBudget(bf)
	o.OnSnapshot(st)
}

// resetSimplex rebuilds the simplex around the current best point with a
// smaller spread, rewriting the other rows in place.
func resetSimplex(bf *budgetFn, pts [][]float64, vals []float64, radius float64) {
	order(pts, vals)
	n := len(pts) - 1
	for i := 0; i < n; i++ {
		p := pts[i+1]
		copy(p, pts[0])
		p[i] += radius
		vals[i+1], _ = bf.call(p)
	}
}

// SPSA minimizes f with simultaneous-perturbation stochastic
// approximation: two evaluations per iteration regardless of dimension,
// the standard choice for shot-noisy variational objectives.
func SPSA(f Objective, x0 []float64, opts Options) Result {
	n := len(x0)
	opts = opts.withDefaults(n)
	if opts.MaxEvals <= 0 || opts.MaxEvals > 2*opts.MaxIter+1 {
		opts.MaxEvals = 2*opts.MaxIter + 1
	}
	bf := newBudgetFn(f, opts.MaxEvals)
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	var x []float64
	startIter := 0
	draws := uint64(0)
	if st := opts.Resume; st.resumable(MethodSPSA, n) {
		x = append([]float64(nil), st.X...)
		bf.restore(st)
		startIter = st.Iter
		// Restore the perturbation stream's position by replaying the
		// recorded number of draws: every draw in SPSA is an Intn(2), so
		// the call count alone pins the stream state.
		for i := uint64(0); i < st.RNGDraws; i++ {
			rng.Intn(2)
		}
		draws = st.RNGDraws
	} else {
		x = append([]float64(nil), x0...)
		bf.call(x)
	}
	const (
		aScale = 0.2
		cScale = 0.15
		bigA   = 10.0
		alpha  = 0.602
		gamma  = 0.101
	)
	iters := startIter
	for ; iters < opts.MaxIter && bf.evals+2 <= opts.MaxEvals; iters++ {
		if opts.cancelled() {
			break
		}
		k := float64(iters + 1)
		ak := aScale * opts.Step / math.Pow(k+bigA, alpha)
		ck := cScale * opts.Step / math.Pow(k, gamma)
		delta := make([]float64, n)
		for i := range delta {
			if rng.Intn(2) == 0 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
		}
		draws += uint64(n)
		xp := make([]float64, n)
		xm := make([]float64, n)
		for i := range x {
			xp[i] = x[i] + ck*delta[i]
			xm[i] = x[i] - ck*delta[i]
		}
		fp, _ := bf.call(xp)
		fm, _ := bf.call(xm)
		for i := range x {
			ghat := (fp - fm) / (2 * ck * delta[i])
			x[i] -= ak * ghat
		}
		opts.iterDone(iters, bf)
		if opts.OnSnapshot != nil {
			st := &State{Method: string(MethodSPSA), Dim: n, Iter: iters + 1,
				X: append([]float64(nil), x...), RNGDraws: draws}
			st.fillBudget(bf)
			opts.OnSnapshot(st)
		}
	}
	bf.call(x)
	return Result{X: bf.bestX, F: bf.bestF, Evals: bf.evals, Iters: iters}
}

// Method names an optimizer for configuration surfaces.
type Method string

const (
	MethodCOBYLA     Method = "cobyla"
	MethodNelderMead Method = "nelder-mead"
	MethodSPSA       Method = "spsa"
	MethodPowell     Method = "powell"
)

// Minimize dispatches by method name; unknown names fall back to COBYLA,
// matching the paper's default.
func Minimize(m Method, f Objective, x0 []float64, opts Options) Result {
	switch m {
	case MethodNelderMead:
		return NelderMead(f, x0, opts)
	case MethodSPSA:
		return SPSA(f, x0, opts)
	case MethodPowell:
		return Powell(f, x0, opts)
	default:
		return COBYLA(f, x0, opts)
	}
}
