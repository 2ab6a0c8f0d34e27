package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
	"rasengan/internal/problems"
)

// The reference oracles below are the straightforward forms of Simplify
// and TernaryKernelVectors: Simplify allocating both combinations of every
// ordered pair, the DFS re-reading the matrix through IntMat.At and
// re-testing every row at every node. The production versions must match
// them exactly, vector for vector and in order.

func simplifyReference(basis [][]int64) [][]int64 {
	out := make([][]int64, len(basis))
	for i, u := range basis {
		out[i] = append([]int64(nil), u...)
	}
	const maxPasses = 10
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < len(out); i++ {
			for j := 0; j < len(out); j++ {
				if i == j {
					continue
				}
				add := make([]int64, len(out[i]))
				sub := make([]int64, len(out[i]))
				for k := range out[i] {
					add[k] = out[i][k] + out[j][k]
					sub[k] = out[i][k] - out[j][k]
				}
				if IsTernary(add) && NonZero(add) < NonZero(out[i]) {
					out[i] = add
					improved = true
				}
				if IsTernary(sub) && NonZero(sub) < NonZero(out[i]) {
					out[i] = sub
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return out
}

func ternaryKernelVectorsReference(C *linalg.IntMat, opts TernarySearchOptions) [][]int64 {
	n := C.Cols
	rows := C.Rows
	if opts.MaxSupport <= 0 || opts.MaxSupport > n {
		opts.MaxSupport = n
	}
	if opts.NodeBudget <= 0 {
		opts.NodeBudget = 4_000_000
	}
	if opts.MaxVectors <= 0 {
		opts.MaxVectors = 512
	}
	// Suffix bounds: the maximum |contribution| the undecided variables
	// i..n-1 can add to each row.
	sufAbs := make([][]int64, rows)
	for r := 0; r < rows; r++ {
		sufAbs[r] = make([]int64, n+1)
		for i := n - 1; i >= 0; i-- {
			c := C.At(r, i)
			if c < 0 {
				c = -c
			}
			sufAbs[r][i] = sufAbs[r][i+1] + c
		}
	}
	var out [][]int64
	cur := make([]int64, n)
	sums := make([]int64, rows)
	nodes := 0
	var dfs func(i, support int, anyNonzero bool)
	dfs = func(i, support int, anyNonzero bool) {
		nodes++
		if nodes > opts.NodeBudget || len(out) >= opts.MaxVectors {
			return
		}
		for r := 0; r < rows; r++ {
			if s := sums[r]; s > sufAbs[r][i] || -s > sufAbs[r][i] {
				return
			}
		}
		if i == n {
			if anyNonzero {
				out = append(out, append([]int64(nil), cur...))
			}
			return
		}
		vals := []int64{0, 1, -1}
		if !anyNonzero {
			vals = []int64{0, 1} // canonical: first nonzero is +1
		}
		for _, v := range vals {
			if v != 0 && support == opts.MaxSupport {
				continue
			}
			cur[i] = v
			if v != 0 {
				for r := 0; r < rows; r++ {
					sums[r] += v * C.At(r, i)
				}
			}
			ns := support
			na := anyNonzero
			if v != 0 {
				ns++
				na = true
			}
			dfs(i+1, ns, na)
			if v != 0 {
				for r := 0; r < rows; r++ {
					sums[r] -= v * C.At(r, i)
				}
			}
			cur[i] = 0
		}
	}
	dfs(0, 0, false)
	sort.SliceStable(out, func(a, b int) bool { return NonZero(out[a]) < NonZero(out[b]) })
	return out
}

func cloneVectors(vs [][]int64) [][]int64 {
	out := make([][]int64, len(vs))
	for i, u := range vs {
		out[i] = slices.Clone(u)
	}
	return out
}

// randomBasis returns m vectors of length n with entries in [-2, 2]: signed
// sums of two or three sparse ternary atoms, clipped, with an occasional
// stray entry — inputs on which Algorithm 1 finds replacements across
// several passes, as it does on rational nullspace bases.
func randomBasis(rng *rand.Rand, n, m int) [][]int64 {
	atoms := make([][]int64, 1+m/2)
	for a := range atoms {
		u := make([]int64, n)
		for k := 0; k < 1+rng.Intn(4); k++ {
			u[rng.Intn(n)] = int64(1 - 2*rng.Intn(2))
		}
		atoms[a] = u
	}
	basis := make([][]int64, m)
	for i := range basis {
		u := make([]int64, n)
		for k := 0; k < 1+rng.Intn(3); k++ {
			a := atoms[rng.Intn(len(atoms))]
			sign := int64(1 - 2*rng.Intn(2))
			for j := range u {
				u[j] = max(-2, min(2, u[j]+sign*a[j]))
			}
		}
		if rng.Intn(5) == 0 {
			u[rng.Intn(n)] = int64(rng.Intn(5) - 2)
		}
		basis[i] = u
	}
	return basis
}

func checkSimplifyMatches(t *testing.T, basis [][]int64) (changed bool) {
	t.Helper()
	in := cloneVectors(basis)
	got := Simplify(basis)
	want := simplifyReference(basis)
	if !equalVectors(got, want) {
		t.Fatalf("Simplify(%v)\n  = %v\nwant %v", basis, got, want)
	}
	if !equalVectors(basis, in) {
		t.Fatalf("Simplify mutated its input")
	}
	return !equalVectors(got, in)
}

// TestSimplifyMatchesReference compares the in-place scan with the
// reference on seeded inputs whose lengths cross the 64- and 128-bit
// support-mask word boundaries, and on every suite cell's nullspace basis.
func TestSimplifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	changed := 0
	for _, n := range []int{1, 3, 9, 40, 63, 64, 65, 100, 127, 128, 129, 160, 192, 200} {
		for _, m := range []int{1, 2, 5, 12, 24} {
			for trial := 0; trial < 4; trial++ {
				if checkSimplifyMatches(t, randomBasis(rng, n, m)) {
					changed++
				}
			}
		}
	}
	if changed < 100 {
		t.Fatalf("only %d seeded inputs were simplified at all; the generator no longer exercises replacements", changed)
	}
	for _, b := range problems.Suite() {
		checkSimplifyMatches(t, linalg.Nullspace(b.Generate(0).C))
	}
}

// encodeSimplifyInput writes vectors of one length n ≤ 192, at most 128
// of them, in FuzzSimplify's encoding: round r sets the r-th nonzero entry
// of every vector in turn, and a vector with fewer writes a zero onto one
// of its zero positions.
func encodeSimplifyInput(basis [][]int64) (nb, mb byte, data []byte) {
	n, m := len(basis[0]), len(basis)
	rounds := 0
	for _, u := range basis {
		rounds = max(rounds, NonZero(u))
	}
	for r := 0; r < rounds; r++ {
		for _, u := range basis {
			pos, val, seen := slices.Index(u, 0), int64(0), 0
			for k, v := range u {
				if v != 0 {
					if seen == r {
						pos, val = k, v
						break
					}
					seen++
				}
			}
			data = append(data, byte(pos), byte(val+2))
		}
	}
	return byte(n - 1), byte(m - 1), data
}

// decodeSimplifyInput is FuzzSimplify's decoding: m = 1 + mb%128 vectors
// of length n = 1 + nb%192, the k-th byte pair writing entry
// data[2k] mod n of vector k mod m as data[2k+1] mod 5, less 2.
func decodeSimplifyInput(nb, mb byte, data []byte) [][]int64 {
	n, m := 1+int(nb)%192, 1+int(mb)%128
	basis := make([][]int64, m)
	for i := range basis {
		basis[i] = make([]int64, n)
	}
	for k := 0; k+1 < len(data); k += 2 {
		basis[(k/2)%m][int(data[k])%n] = int64(data[k+1]%5) - 2
	}
	return basis
}

// FuzzSimplify decodes (position, value) byte pairs into m ≤ 128 vectors
// of length n ≤ 192 with entries in [-2, 2] and compares Simplify with the
// reference. When every vector is ternary it also checks simplifyWith,
// with the second half of the vectors passed as packed helpers.
func FuzzSimplify(f *testing.F) {
	f.Add(byte(4), byte(2), []byte{0, 1, 2, 1, 0, 3, 1, 4})
	f.Add(byte(64), byte(4), []byte{3, 1, 64, 3, 3, 3, 64, 1, 65, 4, 70, 0, 3, 4, 65, 1})
	f.Add(byte(129), byte(6), []byte{0, 3, 127, 1, 128, 3, 129, 1, 0, 1, 128, 1, 5, 4, 129, 3, 127, 1, 200, 0})
	f.Add(byte(191), byte(11), []byte{10, 3, 70, 1, 150, 3, 10, 1, 70, 3, 190, 4, 150, 1, 190, 1, 33, 2})
	// Widths at the mask word boundaries, with entries clustered on a few
	// positions around them so that pairs overlap: all-ternary rows run
	// the mask step, a first row with ±2 entries the int64 step. Every one
	// of these inputs is simplified.
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{63, 64, 65, 128, 129, 192} {
		spots := []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, n - 2, n - 1}
		for _, mixed := range []bool{false, true} {
			var data []byte
			for k := 0; k < 40; k++ {
				v := byte(1 + rng.Intn(3)) // −1, 0 or 1
				if mixed && k%5 == 0 && rng.Intn(3) == 0 {
					v = byte(4 * rng.Intn(2)) // −2 or 2, in the first row
				}
				data = append(data, byte(spots[rng.Intn(len(spots))]%n), v)
			}
			f.Add(byte(n-1), byte(5), data)
		}
	}
	// BuildBasis's second-call inputs on F4, S4 and K4: 66 to 89 ternary
	// vectors that take two or three passes.
	for _, label := range []string{"F4", "S4", "K4"} {
		b, err := problems.ByLabel(label)
		if err != nil {
			f.Fatal(err)
		}
		input, _, _ := unionSimplifyInput(b.Generate(0))
		nb, mb, data := encodeSimplifyInput(input)
		if !equalVectors(decodeSimplifyInput(nb, mb, data), input) {
			f.Fatalf("%s: the second-call input does not survive the encoding", label)
		}
		f.Add(nb, mb, data)
	}
	f.Fuzz(func(t *testing.T, nb, mb byte, data []byte) {
		basis := decodeSimplifyInput(nb, mb, data)
		m := len(basis)
		checkSimplifyMatches(t, basis)
		if !slices.ContainsFunc(basis, func(u []int64) bool { return !IsTernary(u) && NonZero(u) > 0 }) {
			h := m / 2
			helpers := make([]signs, m-h)
			for i, u := range basis[h:] {
				helpers[i] = packSigns(u)
			}
			if got, want := simplifyWith(basis[:h], helpers), Simplify(basis)[:h]; !equalVectors(got, want) {
				t.Fatalf("simplifyWith(%v, %v)\n  = %v\nwant %v", basis[:h], basis[h:], got, want)
			}
		}
	})
}

// TestSimplifyAllocsBounded gates the in-place scan: Simplify allocates
// its output, one backing array for the output's vectors and five work
// buffers, however many vectors, pairs and passes it has.
func TestSimplifyAllocsBounded(t *testing.T) {
	inputs := map[string][][]int64{
		"random-150x60": randomBasis(rand.New(rand.NewSource(22)), 150, 60),
	}
	for _, label := range []string{"F4", "S4", "K4"} {
		b, err := problems.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		inputs[label] = linalg.Nullspace(b.Generate(0).C)
	}
	for name, basis := range inputs {
		const limit = 7
		if allocs := testing.AllocsPerRun(5, func() { Simplify(basis) }); allocs > limit {
			t.Errorf("%s: Simplify of %d vectors allocates %v times; want at most %v", name, len(basis), allocs, limit)
		}
	}
}

// TestBuildBasisAllocsBounded gates basis construction on the cells
// whose pool decision runs: packed-mask dedupe, the enrichment pairs kept
// as packed signs and the mask step of Simplify allocate per kept vector,
// never per pair or per key, so the counts stay at what they are now plus
// a small margin.
func TestBuildBasisAllocsBounded(t *testing.T) {
	for _, c := range []struct {
		label string
		limit float64
	}{{"F4", 104}, {"S4", 94}, {"K4", 88}} {
		b, err := problems.ByLabel(c.label)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Generate(0)
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := BuildBasis(p, BasisOptions{}); err != nil {
				t.Fatal(err)
			}
		}); allocs > c.limit {
			t.Errorf("%s: BuildBasis allocates %v times; want at most %v", c.label, allocs, c.limit)
		}
	}
}

// ternaryLadder runs the search of TernaryKernelVectors once for every
// support bound lo..hi and returns the list of each: levels[L-lo] is what
// TernaryKernelVectors returns for MaxSupport L with the same budgets. It
// returns nil when lo > hi.
func ternaryLadder(C *linalg.IntMat, lo, hi, nodeBudget, maxVectors int) [][][]int64 {
	if lo > hi {
		return nil
	}
	d := searchLadder(C, lo, hi, nodeBudget, maxVectors)
	levels := make([][][]int64, hi-lo+1)
	for L := lo; L <= hi; L++ {
		if L > lo && d.level(L) == d.level(L-1) {
			levels[L-lo] = levels[L-lo-1]
			continue
		}
		levels[L-lo] = d.list(L)
	}
	return levels
}

func equalVectors(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }

// collectTernary is BuildBasis's pool dedupe written with string keys:
// the canonical form of every ternary vector of the sets, first
// occurrence kept.
func collectTernary(sets ...[][]int64) [][]int64 {
	seen := map[string]bool{}
	var pool [][]int64
	for _, set := range sets {
		for _, u := range set {
			if !IsTernary(u) {
				continue
			}
			c := Canonical(u)
			if k := vecKey(c); !seen[k] {
				seen[k] = true
				pool = append(pool, c)
			}
		}
	}
	return pool
}

// unionSimplifyInput returns what BuildBasis's second Simplify call
// stands for with simplification on, Simplify(input)[:len(union)]: input
// is the union pool, then the vectors of its sparse pairs. It also
// returns the simplified basis and the union pool themselves.
func unionSimplifyInput(p *problems.Problem) (input, work, union [][]int64) {
	raw := linalg.Nullspace(p.C)
	work = Simplify(raw)
	union = collectTernary(work, raw, linalg.KernelBasisInteger(p.C))
	input = slices.Clone(union)
	for _, h := range enrichSparsePairs(union, 8, 4*len(union)+16) {
		u := make([]int64, p.N)
		(&signKey{h.plus, h.minus}).fill(u)
		input = append(input, u)
	}
	return input, work, union
}

// TestSimplifyWithHelpersMatchesSimplify checks BuildBasis's second
// Simplify call, which keeps the sparse pairs as packed signs, against
// Simplify over the pool and the pairs' vectors, on every suite cell,
// cases 0–2.
func TestSimplifyWithHelpersMatchesSimplify(t *testing.T) {
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			input, _, union := unionSimplifyInput(p)
			got := simplifyWith(union, enrichSparsePairs(union, 8, 4*len(union)+16))
			if want := Simplify(input)[:len(union)]; !equalVectors(got, want) {
				t.Fatalf("%s case %d:\n  got  %v\n  want %v", b.Label(), c, got, want)
			}
		}
	}
}

// decisionPools returns the two pools BuildBasis weighs with
// simplification on, built here with string-keyed dedupe: the simplified
// basis alone, and the union re-simplified against its sparse pairs.
func decisionPools(p *problems.Problem) (simplified, union [][]int64) {
	input, work, union := unionSimplifyInput(p)
	simp := Simplify(input)
	return collectTernary(work), collectTernary(union, simp[:len(union)])
}

// TestSameClosureMatchesClosureSizes checks the one-walk pool decision
// against the two capped walks it stands for, closureSize(S) ==
// closureSize(U), for pools S ⊆ U: random sub-pools of random kernels, and
// the decision pools of every suite cell, cases 0–2. Each pair runs under
// caps that stop neither walk, one, or both.
func TestSameClosureMatchesClosureSizes(t *testing.T) {
	agree, differ, capped := 0, 0, 0
	check := func(name string, p *problems.Problem, sub, full [][]int64) {
		t.Helper()
		clS, clU := closureSize(p, sub, 0), closureSize(p, full, 0)
		for _, c := range []int{0, 1, 2, 3, clS - 1, clS, clS + 1, clU - 1, clU, clU + 1, basisClosureCap} {
			want := closureSize(p, sub, c) == closureSize(p, full, c)
			if got := sameClosure(p, sub, full, c); got != want {
				t.Fatalf("%s cap %d (closures %d, %d): sameClosure = %v, want %v", name, c, clS, clU, got, want)
			}
			switch {
			case c > 0 && clS >= c:
				capped++
			case want:
				agree++
			default:
				differ++
			}
		}
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(3), 4+rng.Intn(8)
		C := randomConstraints(rng, rows, cols)
		x0 := bitvec.New(cols)
		for i := 0; i < cols; i++ {
			x0.Set(i, rng.Intn(2) == 1)
		}
		p := &problems.Problem{Name: "random", N: cols, C: C, B: C.MulVecBits(x0.Ints()), Init: x0}
		full := TernaryKernelVectors(C, TernarySearchOptions{MaxVectors: 12})
		if len(full) == 0 {
			continue
		}
		var sub [][]int64
		for _, u := range full {
			if rng.Intn(2) == 0 {
				sub = append(sub, u)
			}
		}
		if len(sub) == 0 {
			sub = full[:1]
		}
		check("random", p, sub, full)
	}
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			sub, full := decisionPools(p)
			if len(sub) == 0 {
				continue
			}
			if !slices.EqualFunc(full[:len(sub)], sub, slices.Equal[[]int64]) {
				t.Fatalf("%s case %d: the union does not start with the simplified pool", b.Label(), c)
			}
			check(fmt.Sprintf("%s case %d", b.Label(), c), p, sub, full)
		}
	}
	if agree == 0 || differ == 0 || capped == 0 {
		t.Fatalf("%d agreeing, %d differing and %d capped decisions: the inputs no longer exercise every branch", agree, differ, capped)
	}
}

// randomConstraints returns a rows×cols integer matrix with sparse entries
// in [-2, 2].
func randomConstraints(rng *rand.Rand, rows, cols int) *linalg.IntMat {
	C := linalg.NewIntMat(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(3) == 0 {
				C.Set(r, c, int64(rng.Intn(5)-2))
			}
		}
	}
	return C
}

// TestTernaryKernelVectorsMatchesReference compares the flat DFS with the
// reference, including runs cut short by each budget, on random matrices
// and on the suite's constraint matrices.
func TestTernaryKernelVectorsMatchesReference(t *testing.T) {
	check := func(name string, C *linalg.IntMat, opts TernarySearchOptions) int {
		t.Helper()
		got := TernaryKernelVectors(C, opts)
		want := ternaryKernelVectorsReference(C, opts)
		if !equalVectors(got, want) {
			t.Fatalf("%s %+v:\n  got  %v\n  want %v", name, opts, got, want)
		}
		return len(got)
	}
	rng := rand.New(rand.NewSource(23))
	found := 0
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(4), 3+rng.Intn(10)
		C := randomConstraints(rng, rows, cols)
		for _, opts := range []TernarySearchOptions{
			{},
			{MaxSupport: 1 + rng.Intn(cols)},
			{NodeBudget: 1 + rng.Intn(400)},
			{MaxVectors: 1 + rng.Intn(4)},
		} {
			found += check("random", C, opts)
		}
	}
	if found == 0 {
		t.Fatal("no random matrix had a ternary kernel vector; the generator no longer exercises the search")
	}
	for _, b := range problems.Suite() {
		C := b.Generate(0).C
		for sup := 2; sup <= 4; sup++ {
			check(b.Label(), C, TernarySearchOptions{MaxSupport: sup, NodeBudget: 20000, MaxVectors: 64})
		}
	}
}

// TestTernaryLadderMatchesPerLevelSearch compares every level of the
// one-pass ladder with a standalone reference search at that support
// bound, under node and vector caps small enough to stop levels midway,
// on random matrices (bounds past n included) and on the suite's
// constraint matrices.
func TestTernaryLadderMatchesPerLevelSearch(t *testing.T) {
	// check returns how many levels the caps cut short of the list the
	// same search returns with four times the room.
	check := func(name string, C *linalg.IntMat, lo, hi int, caps TernarySearchOptions) (cut int) {
		t.Helper()
		levels := ternaryLadder(C, lo, hi, caps.NodeBudget, caps.MaxVectors)
		roomy := ternaryLadder(C, lo, hi, 4*caps.NodeBudget, 4*caps.MaxVectors)
		if len(levels) != hi-lo+1 {
			t.Fatalf("%s: %d levels for bounds %d..%d", name, len(levels), lo, hi)
		}
		for L := lo; L <= hi; L++ {
			opts := caps
			opts.MaxSupport = L
			if want := ternaryKernelVectorsReference(C, opts); !equalVectors(levels[L-lo], want) {
				t.Fatalf("%s level %d %+v:\n  got  %v\n  want %v", name, L, caps, levels[L-lo], want)
			}
			if len(levels[L-lo]) < len(roomy[L-lo]) {
				cut++
			}
		}
		return cut
	}
	rng := rand.New(rand.NewSource(24))
	cut := 0
	for trial := 0; trial < 400; trial++ {
		rows, cols := 1+rng.Intn(4), 3+rng.Intn(10)
		C := randomConstraints(rng, rows, cols)
		for _, caps := range []TernarySearchOptions{
			{},
			{NodeBudget: 1 + rng.Intn(400)},
			{MaxVectors: 1 + rng.Intn(4)},
			{NodeBudget: 1 + rng.Intn(2000), MaxVectors: 1 + rng.Intn(8)},
		} {
			cut += check("random", C, 1+rng.Intn(2), cols+rng.Intn(3), caps)
		}
	}
	if cut < 500 {
		t.Fatalf("caps cut only %d random levels short; the caps no longer stop levels midway", cut)
	}
	cut = 0
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			C := b.Generate(c).C
			for _, caps := range []TernarySearchOptions{
				{NodeBudget: 300, MaxVectors: 4},
				{NodeBudget: 2000},
				{NodeBudget: 5000, MaxVectors: 64},
				{NodeBudget: 20000, MaxVectors: 16},
			} {
				cut += check(fmt.Sprintf("%s case %d", b.Label(), c), C, 2, maxSupportDefault(C.Cols), caps)
			}
		}
	}
	if cut < 200 {
		t.Fatalf("caps cut only %d suite levels short; the caps no longer stop levels midway", cut)
	}
}

// TestLevelClosuresMatchClosureSize checks the level closures of the
// search fallback, grown from the level below where its list allows,
// against closureSize on each level's list: G2–G4, cases 0–2, under the
// default caps and under node and vector caps that stop a higher level
// before the one below it, each with closure caps that stop no walk and
// that stop walks midway. A level is skipped only when its list equals
// the one below it.
func TestLevelClosuresMatchClosureSize(t *testing.T) {
	grown, rewalked, capped := 0, 0, 0
	for _, label := range []string{"G2", "G3", "G4"} {
		b, err := problems.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			hi := maxSupportDefault(p.N)
			for _, caps := range []TernarySearchOptions{
				{MaxVectors: 2048},
				{NodeBudget: 300, MaxVectors: 6},
				{NodeBudget: 2000},
				{MaxVectors: 8},
				{NodeBudget: 5000, MaxVectors: 24},
			} {
				d := searchLadder(p.C, 2, hi, caps.NodeBudget, caps.MaxVectors)
				for _, maxStates := range []int{basisClosureCap, 3, 7} {
					name := fmt.Sprintf("%s case %d %+v cap %d", label, c, caps, maxStates)
					next, below := 2, false // below: the walk below stopped at the cap
					skipTo := func(L int) {
						for ; next < L; next++ {
							if next == 2 || !equalVectors(d.list(next), d.list(next-1)) {
								t.Fatalf("%s: level %d was skipped but its list differs from the one below", name, next)
							}
						}
					}
					d.closures(p, 2, hi, maxStates, func(L, size int) bool {
						skipTo(L)
						next = L + 1
						if want := closureSize(p, d.list(L), maxStates); size != want {
							t.Fatalf("%s level %d: closure %d, want %d", name, L, size, want)
						}
						switch {
						case L == 2:
						case d.grows(L) && !below:
							grown++
						case !d.grows(L):
							rewalked++
						}
						below = size >= maxStates
						if below {
							capped++
						}
						return true
					})
					skipTo(hi + 1)
				}
			}
		}
	}
	if grown == 0 || rewalked == 0 || capped == 0 {
		t.Fatalf("%d grown, %d re-walked and %d capped level closures: the inputs no longer exercise every branch", grown, rewalked, capped)
	}
	t.Logf("%d grown, %d re-walked and %d capped level closures", grown, rewalked, capped)
}
