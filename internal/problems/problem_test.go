package problems

import (
	"math"
	"math/rand"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
)

// paperProblem builds the running example of Figure 1(a): five variables,
// two constraints, with a simple linear objective.
func paperProblem() *Problem {
	C := linalg.FromRows([][]int64{
		{1, 1, -1, 0, 0},
		{0, 0, 1, 1, -1},
	})
	obj := NewQuadObjective(5)
	for i := range obj.Linear {
		obj.Linear[i] = float64(i + 1)
	}
	p := &Problem{
		Name: "paper", Family: "TEST", N: 5,
		Sense: Minimize, Obj: obj,
		C: C, B: []int64{0, 1},
		Init: bitvec.FromBits([]int{0, 0, 0, 1, 0}),
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestPaperProblemFeasibility(t *testing.T) {
	p := paperProblem()
	if !p.Feasible(p.Init) {
		t.Fatal("init infeasible")
	}
	// From the paper: x2 = [1,0,1,0,0] and x3 = [1,0,1,1,1] are feasible.
	for _, s := range []string{"10100", "10111"} {
		if !p.Feasible(bitvec.MustFromString(s)) {
			t.Errorf("%s should be feasible", s)
		}
	}
	if p.Feasible(bitvec.MustFromString("11111")) {
		t.Error("11111 should be infeasible")
	}
}

func TestEnumerateFeasiblePaperExample(t *testing.T) {
	p := paperProblem()
	feas := EnumerateFeasible(p, 0)
	// Exhaustive check against direct constraint evaluation.
	want := 0
	for mask := 0; mask < 32; mask++ {
		x := bitvec.FromUint64(uint64(mask), 5)
		if p.Feasible(x) {
			want++
		}
	}
	if len(feas) != want {
		t.Errorf("enumerated %d, want %d", len(feas), want)
	}
	for _, x := range feas {
		if !p.Feasible(x) {
			t.Errorf("enumerated infeasible %v", x)
		}
	}
}

func TestEnumerateFeasibleLimit(t *testing.T) {
	p := paperProblem()
	feas := EnumerateFeasible(p, 2)
	if len(feas) != 2 {
		t.Errorf("limit ignored: got %d", len(feas))
	}
}

func TestExactReference(t *testing.T) {
	p := paperProblem()
	ref, err := ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumFeasible < 2 {
		t.Fatalf("NumFeasible = %d", ref.NumFeasible)
	}
	if !p.Feasible(ref.OptSolution) {
		t.Error("optimal solution infeasible")
	}
	if math.Abs(p.Objective(ref.OptSolution)-ref.Opt) > 1e-12 {
		t.Error("Opt does not match OptSolution")
	}
	// Minimize: Opt <= MeanFeasible <= WorstCase.
	if ref.Opt > ref.MeanFeasible || ref.MeanFeasible > ref.WorstCase {
		t.Errorf("ordering violated: opt=%v mean=%v worst=%v", ref.Opt, ref.MeanFeasible, ref.WorstCase)
	}
}

func TestFeasibleBFSMatchesEnumeration(t *testing.T) {
	p := paperProblem()
	basis := p.HomogeneousBasis()
	bfs := FeasibleBFS(p, basis, 0)
	enum := EnumerateFeasible(p, 0)
	if len(bfs) != len(enum) {
		t.Fatalf("BFS found %d, enumeration %d", len(bfs), len(enum))
	}
	set := map[bitvec.Vec]bool{}
	for _, x := range enum {
		set[x] = true
	}
	for _, x := range bfs {
		if !set[x] {
			t.Errorf("BFS produced non-feasible or duplicate state %v", x)
		}
	}
}

func TestPenaltyQUBO(t *testing.T) {
	p := paperProblem()
	lambda := 10.0
	q := p.PenaltyQUBO(lambda)
	for mask := 0; mask < 32; mask++ {
		x := bitvec.FromUint64(uint64(mask), 5)
		want := p.ScoreMin(x)
		viol := p.C.MulVecBits(x.Ints())
		for r, v := range viol {
			d := float64(v - p.B[r])
			want += lambda * d * d
		}
		if got := q.Eval(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("penalty QUBO mismatch at %v: got %v want %v", x, got, want)
		}
	}
}

func TestPenaltyQUBOMaximize(t *testing.T) {
	p := paperProblem()
	p.Sense = Maximize
	q := p.PenaltyQUBO(5)
	x := p.Init
	if math.Abs(q.Eval(x)-(-p.Objective(x))) > 1e-9 {
		t.Error("maximize sense not negated in penalty QUBO for feasible point")
	}
}

func TestConstraintViolation(t *testing.T) {
	p := paperProblem()
	if v := p.ConstraintViolation(p.Init); v != 0 {
		t.Errorf("violation of feasible = %d", v)
	}
	if v := p.ConstraintViolation(bitvec.MustFromString("11111")); v == 0 {
		t.Error("violation of infeasible = 0")
	}
}

func TestIsingCoefficients(t *testing.T) {
	q := NewQuadObjective(3)
	q.Constant = 2
	q.Linear[0] = 1
	q.Linear[2] = -3
	q.AddQuad(0, 1, 4)
	q.Normalize()
	offset, h, J := q.IsingCoefficients()
	// Verify against direct evaluation on all 8 states.
	for mask := 0; mask < 8; mask++ {
		x := bitvec.FromUint64(uint64(mask), 3)
		z := make([]float64, 3)
		for i := 0; i < 3; i++ {
			if x.Bit(i) {
				z[i] = -1
			} else {
				z[i] = 1
			}
		}
		ising := offset
		for i, hi := range h {
			ising += hi * z[i]
		}
		for _, t2 := range J {
			ising += t2.Coef * z[t2.I] * z[t2.J]
		}
		if math.Abs(ising-q.Eval(x)) > 1e-9 {
			t.Errorf("Ising form mismatch at %v: %v vs %v", x, ising, q.Eval(x))
		}
	}
}

func TestQuadObjectiveNormalize(t *testing.T) {
	q := NewQuadObjective(4)
	q.AddQuad(2, 1, 3)
	q.AddQuad(1, 2, -3)
	q.AddQuad(0, 3, 5)
	q.Normalize()
	if len(q.Quad) != 1 || q.Quad[0].I != 0 || q.Quad[0].J != 3 {
		t.Errorf("Normalize failed: %+v", q.Quad)
	}
}

func TestQuadObjectiveDiagonalFoldsToLinear(t *testing.T) {
	q := NewQuadObjective(2)
	q.AddQuad(1, 1, 7)
	if q.Linear[1] != 7 {
		t.Error("x_i^2 term should fold into linear")
	}
}

func TestConstraintTopologyPaperExample(t *testing.T) {
	p := paperProblem()
	stats := ConstraintTopology(p)
	// Row 1 couples {0,1,2}, row 2 couples {2,3,4}: variable 2 bridges.
	if stats.Nodes != 5 {
		t.Errorf("nodes = %d", stats.Nodes)
	}
	if stats.Edges != 6 { // C(3,2) + C(3,2) with no duplicates
		t.Errorf("edges = %d, want 6", stats.Edges)
	}
	if stats.Components != 1 {
		t.Errorf("components = %d, want 1 (variable 2 bridges)", stats.Components)
	}
	if stats.MaxDegree != 4 { // variable 2 touches all others
		t.Errorf("max degree = %d, want 4", stats.MaxDegree)
	}
	if stats.MaxRowSpan != 3 {
		t.Errorf("max row span = %d, want 3", stats.MaxRowSpan)
	}
	if math.Abs(stats.AverageDegree-12.0/5.0) > 1e-12 {
		t.Errorf("avg degree = %v, want 2.4", stats.AverageDegree)
	}
}

func TestConstraintTopologyAcrossSuite(t *testing.T) {
	// The paper's observation: KPP constraints span the most qubits of the
	// one-hot families because its capacity rows touch every element.
	kpp := KPP(2, 0)
	jsp := JSP(3, 0) // same variable count (10)
	sk := ConstraintTopology(kpp)
	sj := ConstraintTopology(jsp)
	if sk.MaxRowSpan <= sj.MaxRowSpan {
		t.Errorf("KPP row span %d should exceed JSP's %d", sk.MaxRowSpan, sj.MaxRowSpan)
	}
	for _, b := range Suite() {
		p := b.Generate(0)
		s := ConstraintTopology(p)
		if s.AverageDegree <= 0 {
			t.Errorf("%s: degenerate constraint graph", p.Name)
		}
	}
}

// randomRowProblem returns a problem of n variables whose rows sum random
// coefficients over scattered columns, with b = C·x0 for a random x0, so
// that x0 is feasible and its one-bit neighbours mostly are not.
func randomRowProblem(rng *rand.Rand, n, rows int) (*Problem, bitvec.Vec) {
	C := linalg.NewIntMat(rows, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < n; c++ {
			if rng.Intn(3) == 0 {
				C.Set(r, c, int64(rng.Intn(7)-3))
			}
		}
	}
	x0 := bitvec.New(n)
	for i := 0; i < n; i++ {
		x0.Set(i, rng.Intn(2) == 1)
	}
	return &Problem{N: n, C: C, B: C.MulVecBits(x0.Ints()), Init: x0}, x0
}

// TestFeasibleMatchesSatisfiesEq compares the word walk of Feasible with
// linalg's C·x = b on vectors whose widths cross the 64- and 128-bit word
// boundaries, and on every suite cell's seed and its one-bit neighbours.
func TestFeasibleMatchesSatisfiesEq(t *testing.T) {
	check := func(p *Problem, x bitvec.Vec) bool {
		t.Helper()
		want := p.C.SatisfiesEq(x.Ints(), p.B)
		if got := p.Feasible(x); got != want {
			t.Fatalf("%s: Feasible(%v) = %v, want %v", p.Name, x, got, want)
		}
		return want
	}
	rng := rand.New(rand.NewSource(31))
	feasible, infeasible := 0, 0
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, 191, 192} {
		for trial := 0; trial < 6; trial++ {
			p, x0 := randomRowProblem(rng, n, 1+rng.Intn(6))
			check(p, x0)
			for i := 0; i < n; i++ {
				x := x0
				x.Flip(i)
				if check(p, x) {
					feasible++
				} else {
					infeasible++
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible neighbours: the generator no longer exercises both answers", feasible, infeasible)
	}
	for _, b := range Suite() {
		p := b.Generate(0)
		check(p, p.Init)
		for i := 0; i < p.N; i++ {
			check(p, p.Init.WithBit(i, !p.Init.Bit(i)))
		}
	}
	// A vector of another width is never feasible.
	p := paperProblem()
	if p.Feasible(bitvec.New(p.N + 1)) {
		t.Fatal("a wider vector passed Feasible")
	}
}

// TestFeasibleZeroAllocs gates Feasible: it sums rows over set bits and
// allocates nothing, feasible or not.
func TestFeasibleZeroAllocs(t *testing.T) {
	for _, label := range []string{"F4", "G4"} {
		b, err := ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Generate(0)
		off := p.Init.WithBit(0, !p.Init.Bit(0))
		if allocs := testing.AllocsPerRun(100, func() {
			if !p.Feasible(p.Init) || p.Feasible(off) {
				t.Fatal("unexpected feasibility")
			}
		}); allocs != 0 {
			t.Errorf("%s: Feasible allocates %v times per call pair; want 0", label, allocs)
		}
	}
}
