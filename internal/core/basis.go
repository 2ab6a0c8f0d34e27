// Package core implements the paper's primary contribution: the
// transition-Hamiltonian expansion algorithm (Rasengan) with its three
// algorithm-hardware codesign optimizations — Hamiltonian simplification
// and pruning (Section 4.1), probability-preserving segmented execution
// (Section 4.2), and purification-based error mitigation (Section 4.3).
package core

import (
	"fmt"
	"math/bits"
	"sort"

	"rasengan/internal/bitvec"
	"rasengan/internal/linalg"
	"rasengan/internal/problems"
)

// IsTernary reports whether every entry of u lies in {-1, 0, 1} and u is
// nonzero — the validity condition isValid(u) of Algorithm 1.
func IsTernary(u []int64) bool {
	nz := false
	for _, v := range u {
		if v < -1 || v > 1 {
			return false
		}
		if v != 0 {
			nz = true
		}
	}
	return nz
}

// NonZero counts the nonzero entries of u (the nnz objective Algorithm 1
// minimizes; the circuit cost of a transition operator is linear in it).
func NonZero(u []int64) int {
	c := 0
	for _, v := range u {
		if v != 0 {
			c++
		}
	}
	return c
}

// Canonical returns u with its first nonzero entry positive (H^τ(u) ==
// H^τ(−u), so signs are an artifact), for deduplication.
func Canonical(u []int64) []int64 {
	for _, v := range u {
		if v > 0 {
			return u
		}
		if v < 0 {
			w := make([]int64, len(u))
			for i, x := range u {
				w[i] = -x
			}
			return w
		}
	}
	return u
}

func vecKey(u []int64) string {
	b := make([]byte, len(u))
	for i, v := range u {
		b[i] = byte(v + 2)
	}
	return string(b)
}

// words is a set of positions below bitvec.MaxBits, bit k%64 of word k/64
// holding position k. Its helpers spell out all three words.
type words [3]uint64

// The helpers below assume three words; this fails to compile otherwise.
var _ = [bitvec.MaxBits / 64]uint64(words{})

func overlap(a, b *words) int {
	return bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]) + bits.OnesCount64(a[2]&b[2])
}

func disjoint(a, b *words) bool { return a[0]&b[0]|a[1]&b[1]|a[2]&b[2] == 0 }

func either(a, b *words) words { return words{a[0] | b[0], a[1] | b[1], a[2] | b[2]} }

// signs packs an integer vector of at most bitvec.MaxBits entries: its
// support and nonzero count, and, when ternary (every entry in {-1,0,1}),
// its +1 and −1 positions, which then describe it completely. A longer
// vector keeps only its count and is never ternary.
type signs struct {
	supp, plus, minus words
	nnz               int
	ternary           bool
}

func packSigns(u []int64) signs {
	if len(u) > bitvec.MaxBits {
		return signs{nnz: NonZero(u)}
	}
	s := signs{ternary: true}
	for k, v := range u {
		if v == 0 {
			continue
		}
		bit := uint64(1) << (uint(k) % 64)
		s.supp[k/64] |= bit
		s.nnz++
		switch v {
		case 1:
			s.plus[k/64] |= bit
		case -1:
			s.minus[k/64] |= bit
		default:
			s.ternary = false
		}
	}
	return s
}

// sumsTernary reports whether u + v, or u − v when neg, stays ternary for
// ternary u and v: exactly when no position holds the same nonzero entry
// in u and ±v. Every shared position then cancels.
func (s *signs) sumsTernary(v *signs, neg bool) bool {
	if neg {
		return disjoint(&s.plus, &v.minus) && disjoint(&s.minus, &v.plus)
	}
	return disjoint(&s.plus, &v.plus) && disjoint(&s.minus, &v.minus)
}

// absorb replaces ternary u with u + v, or with u − v when neg, for
// ternary v when sumsTernary accepts the combination: its support is
// supp(u) xor supp(v), so its count is nnz(u) + nnz(v) − 2·overlap.
func (s *signs) absorb(v *signs, neg bool) {
	vp, vm := &v.plus, &v.minus
	if neg {
		vp, vm = vm, vp
	}
	s.nnz = 0
	for w := range s.supp {
		p := s.plus[w]&^v.supp[w] | vp[w]&^s.supp[w]
		m := s.minus[w]&^v.supp[w] | vm[w]&^s.supp[w]
		s.plus[w], s.minus[w], s.supp[w] = p, m, p|m
		s.nnz += bits.OnesCount64(p | m)
	}
}

// fill writes the entries of ternary s at the positions of span into u.
func (s *signs) fill(u []int64, span *words) {
	for w, x := range span {
		for ; x != 0; x &= x - 1 {
			k := 64*w + bits.TrailingZeros64(x)
			switch bit := x & -x; {
			case s.plus[w]&bit != 0:
				u[k] = 1
			case s.minus[w]&bit != 0:
				u[k] = -1
			default:
				u[k] = 0
			}
		}
	}
}

// signKey identifies a nonzero ternary vector up to sign: the +1 and −1
// masks of Canonical(u), whose lowest set bit is +1.
type signKey struct{ plus, minus words }

// key returns the dedupe key of nonzero ternary s. It copies no entries.
func (s *signs) key() signKey {
	for w, x := range s.supp {
		if x != 0 {
			if s.minus[w]&(x&-x) != 0 {
				return signKey{s.minus, s.plus}
			}
			break
		}
	}
	return signKey{s.plus, s.minus}
}

// fill writes the canonical vector the key stands for into u, which holds
// zeros.
func (k *signKey) fill(u []int64) {
	span := either(&k.plus, &k.minus)
	(&signs{plus: k.plus, minus: k.minus}).fill(u, &span)
}

// Simplify is Algorithm 1 of the paper: greedy passes over ordered pairs
// of basis vectors that replace u_i with u_i ± u_j whenever the
// combination stays in {-1,0,1}^n and has strictly fewer nonzero entries.
// The paper presents a single pass; this implementation repeats the pass
// to a fixpoint (each replacement can enable further reductions — on
// large facility-location kernels one pass leaves support-50 vectors that
// three passes shrink to the natural support-18 facility toggles) and
// scans all ordered pairs rather than only j > i. Within a pair the sum
// is tried before the difference, and the difference (of the original
// u_i) must beat the count after any sum replacement. It returns a new
// slice; the input is not modified.
//
// The scan works on each vector's packed signs. A pair whose supports
// overlap in at most half of u_j's support is skipped without reading its
// entries: outside the overlap exactly one operand is nonzero, so
// nnz(u_i ± u_j) ≥ nnz(u_i) + nnz(u_j) − 2·overlap ≥ nnz(u_i) and neither
// combination can replace u_i. When both operands are ternary the rest is
// word arithmetic: a ternary sum or difference cancels exactly the
// overlap, so its count is nnz(u_i) + nnz(u_j) − 2·overlap, below nnz(u_i)
// by the filter, and since the overlap is nonempty at most one of the two
// is ternary. A combination is then rejected only when it is zero or
// leaves {-1,0,1}. Other pairs, such as those with the ±2 entries of a
// rational basis, are combined entry by entry into two reused scratch
// vectors, abandoning each combination once it leaves {-1,0,1} or stops
// being sparser than u_i. Vectors longer than bitvec.MaxBits, which no
// problem has, take the entry loop for every pair.
//
// From the second pass on, a row rescans only the pairs whose operands
// changed since the pair was last checked: a pair's verdict depends on
// its two vectors alone, and a checked pair that replaced nothing would
// replace nothing again. u_i changes only within row i, right after the
// check that replaced it, and between two scans of row i every other row
// is scanned exactly once. So row i revisits pair (i, j) exactly when its
// previous scan replaced u_i at position j or later, when its current
// scan has already replaced u_i, or when row j's latest scan replaced
// u_j; the rows of that last kind are read from a per-row flag.
func Simplify(basis [][]int64) [][]int64 { return simplifyWith(basis, nil) }

// simplifyWith returns Simplify(basis ++ the vectors of helpers)[:len(basis)]
// for ternary basis and helper vectors, without building the helpers'
// vectors: every pair of two ternary vectors is combined on their packed
// signs alone, so a helper is kept only as its signs. With no helpers the
// basis may hold any vectors.
func simplifyWith(basis [][]int64, helpers []signs) [][]int64 {
	m := len(basis) + len(helpers)
	out := make([][]int64, m)
	n, total := 0, 0
	for _, u := range basis {
		n = max(n, len(u))
		total += len(u)
	}
	// The output vectors share one backing array, each capped at its
	// length.
	flat := make([]int64, total)
	sg := make([]signs, m)
	for i, u := range basis {
		out[i], flat = flat[:len(u):len(u)], flat[len(u):]
		copy(out[i], u)
		sg[i] = packSigns(u)
	}
	copy(sg[len(basis):], helpers)
	wide := n > bitvec.MaxBits
	add := make([]int64, n)
	sub := make([]int64, n)
	// last[i] is the position of the last replacement in row i's latest
	// scan, −1 when it replaced nothing; changed[i] reports last[i] ≥ 0.
	// The first pass checks every pair.
	last := make([]int, m)
	for i := range last {
		last[i] = m - 1
	}
	changed := make([]bool, m)

	const maxPasses = 10
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < m; i++ {
			si := &sg[i]
			// Every pair up to hi is checked; past it only those whose u_j
			// changed, until u_i does.
			hi, at := last[i], -1
			for j := candidate(sg, changed, i, 0, hi, wide); j < m; j = candidate(sg, changed, i, j+1, hi, wide) {
				if simplifyPair(out[i], out[j], si, &sg[j], add, sub) {
					hi, at = m, j
					improved = true
				}
			}
			last[i], changed[i] = at, at >= 0
		}
		if !improved {
			break
		}
	}
	return out[:len(basis)]
}

// candidate returns the first j ≥ from of row i's scan that Simplify
// checks: j ≠ i, within hi or with changed[j] set, and passing the overlap
// filter unless the vectors are wide; len(sg) when there is none.
func candidate(sg []signs, changed []bool, i, from, hi int, wide bool) int {
	a := sg[i].supp
	for j := from; j < len(sg); j++ {
		if j > hi && !changed[j] || j == i {
			continue
		}
		if b := &sg[j]; wide || 2*overlap(&a, &b.supp) > b.nnz {
			return j
		}
	}
	return len(sg)
}

// simplifyPair checks the ordered pair (u_i, u_j) of Simplify that passed
// the overlap filter and replaces u_i, and its signs si, when a
// combination qualifies. It reports whether it replaced u_i. A nil u_i is
// a helper kept only as its signs. add and sub are scratch of the longest
// length.
func simplifyPair(ui, uj []int64, si, sj *signs, add, sub []int64) bool {
	if si.ternary && sj.ternary {
		// The overlap is nonempty, so at most one of the two
		// combinations is ternary; equal supports cancel to zero.
		neg := !si.sumsTernary(sj, false)
		if neg && !si.sumsTernary(sj, true) || si.supp == sj.supp {
			return false
		}
		span := either(&si.supp, &sj.supp)
		si.absorb(sj, neg)
		if ui != nil {
			si.fill(ui, &span)
		}
		return true
	}
	// Each combination stays a candidate while it is ternary and sparser
	// than u_i; the scan stops once neither is.
	addOK, subOK := true, true
	addNZ, subNZ := 0, 0
	for k, a := range ui {
		b := uj[k]
		s, d := a+b, a-b
		add[k], sub[k] = s, d
		if s != 0 {
			addNZ++
			addOK = addOK && s >= -1 && s <= 1 && addNZ < si.nnz
		}
		if d != 0 {
			subNZ++
			subOK = subOK && d >= -1 && d <= 1 && subNZ < si.nnz
		}
		if !addOK && !subOK {
			return false
		}
	}
	best := si.nnz
	var repl []int64
	if addOK && addNZ > 0 {
		repl, best = add, addNZ
	}
	if subOK && subNZ > 0 && subNZ < best {
		repl = sub
	}
	if repl == nil {
		return false
	}
	copy(ui, repl[:len(ui)])
	*si = packSigns(ui)
	return true
}

// TernarySearchOptions bounds the ternary kernel vector search.
type TernarySearchOptions struct {
	MaxSupport int // largest allowed nnz; 0 means n
	NodeBudget int // DFS node cap; 0 means 4,000,000
	MaxVectors int // stop after collecting this many; 0 means 512
}

// TernaryKernelVectors enumerates nonzero vectors u ∈ {-1,0,1}^n with
// C·u = 0 by depth-first search with per-row interval pruning, up to the
// given support bound and budgets. The first nonzero entry is fixed to +1
// (H^τ is sign-symmetric). It returns vectors sorted by support size.
//
// This is the fallback path of the basis pipeline: when the rational
// nullspace basis leaves {-1,0,1}^n (e.g. graph coloring, where slack
// columns pick up ±2), the transition Hamiltonians the paper's Definition
// 1 requires must be recovered directly as ternary kernel vectors.
func TernaryKernelVectors(C *linalg.IntMat, opts TernarySearchOptions) [][]int64 {
	sup := opts.MaxSupport
	if sup <= 0 {
		sup = C.Cols
	}
	return searchLadder(C, sup, sup, opts.NodeBudget, opts.MaxVectors).list(sup)
}

// ladder is one depth-first pass that serves the search of
// TernaryKernelVectors for every support bound lo..hi, because a level's
// search tree is the full tree cut at its support bound, visited in the
// same order. Each level's caps are emulated exactly: a node with prefix
// support s counts toward every level L ≥ s, and level L stops at the
// first node entry where its count passes the node budget or where it
// already holds maxVectors vectors. Counts and vector tallies grow with
// L, so levels stop from the top down and the running ones are always
// lo..top; the search branches only up to top. Level L's list is the
// vectors of support ≤ L found before L stopped, in DFS order,
// stable-sorted by support. A bound above n searches the same tree as n:
// the pass runs the levels loE..hiE and the higher ones are level n.
type ladder struct {
	n, rows, loE int

	// The columns in compressed sparse form (row indices and coefficients
	// of column i at colPtr[i]:colPtr[i+1]), and the suffix bounds
	// column-major: suf[i*rows+r] is the maximum |contribution| the
	// undecided variables i..n-1 can add to row r.
	colPtr  []int
	colRow  []int
	colCoef []int64
	suf     []int64

	// found holds the packed signs of every vector in DFS order and
	// support its support; cur is the vector of the current prefix and
	// sums its row sums. top is the highest running level; nodes and
	// tally are its node count and the number of found vectors it holds.
	// entered[s] and foundAt[s] count node entries and vectors of support
	// exactly s, from which a lower level's counts follow when the top one
	// stops. end[L-loE] is the number of vectors found when level L
	// stopped, or all of them when it ran to the end.
	found                  []signKey
	support                []int
	cur                    signKey
	sums                   []int64
	top, nodes, tally      int
	nodeBudget, maxVectors int
	entered, foundAt, end  []int

	// order lists the found vectors stable-sorted by support; filtering it
	// keeps each level's vectors in DFS order within a support.
	order []int
}

// searchLadder runs the ladder's pass for the support bounds lo..hi ≥ lo.
// C has at most bitvec.MaxBits columns, as every problem does.
func searchLadder(C *linalg.IntMat, lo, hi, nodeBudget, maxVectors int) *ladder {
	n, rows := C.Cols, C.Rows
	if n > bitvec.MaxBits {
		panic(fmt.Sprintf("core: ternary search over %d columns exceeds %d", n, bitvec.MaxBits))
	}
	if nodeBudget <= 0 {
		nodeBudget = 4_000_000
	}
	if maxVectors <= 0 {
		maxVectors = 512
	}
	loE, hiE := min(lo, n), min(hi, n)
	d := &ladder{
		n: n, rows: rows, loE: loE,
		colPtr:     make([]int, n+1),
		suf:        make([]int64, (n+1)*rows),
		top:        hiE,
		nodeBudget: nodeBudget,
		maxVectors: maxVectors,
		entered:    make([]int, hiE+1),
		foundAt:    make([]int, hiE+1),
		end:        make([]int, hiE-loE+1),
		sums:       make([]int64, rows),
	}
	for i := 0; i < n; i++ {
		for r := 0; r < rows; r++ {
			if c := C.Data[r*C.Cols+i]; c != 0 {
				d.colRow = append(d.colRow, r)
				d.colCoef = append(d.colCoef, c)
			}
		}
		d.colPtr[i+1] = len(d.colRow)
	}
	for i := n - 1; i >= 0; i-- {
		copy(d.suf[i*rows:(i+1)*rows], d.suf[(i+1)*rows:(i+2)*rows])
		for k := d.colPtr[i]; k < d.colPtr[i+1]; k++ {
			c := d.colCoef[k]
			if c < 0 {
				c = -c
			}
			d.suf[i*rows+d.colRow[k]] += c
		}
	}
	for k := range d.end {
		d.end[k] = -1
	}
	d.dfs(0, 0)
	for k, e := range d.end {
		if e < 0 {
			d.end[k] = len(d.support)
		}
	}
	// A counting sort by support is the stable sort.
	start := make([]int, n+2)
	for _, s := range d.support {
		start[s+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	d.order = make([]int, len(d.support))
	for k, s := range d.support {
		d.order[start[s]] = k
		start[s]++
	}
	return d
}

// dfs enters the node that decides variable i after a prefix of support
// s. The prefix is nonzero exactly when s > 0, so a nonzero entry is +1
// first and −1 only after one: the first nonzero entry is fixed to +1.
func (d *ladder) dfs(i, s int) {
	// Every entered node has s ≤ top, so it counts for top.
	d.entered[s]++
	d.nodes++
	for d.top >= d.loE && (d.nodes > d.nodeBudget || d.tally >= d.maxVectors) {
		d.end[d.top-d.loE] = len(d.support)
		d.nodes -= d.entered[d.top]
		d.tally -= d.foundAt[d.top]
		d.top--
	}
	if d.top < d.loE || s > d.top {
		return
	}
	// Interval pruning. The parent node passed this test for every row,
	// and only the rows of column i-1 changed a sum or a bound since, so
	// only those are tested again.
	if i > 0 {
		bound := d.suf[i*d.rows : (i+1)*d.rows]
		for k := d.colPtr[i-1]; k < d.colPtr[i]; k++ {
			r := d.colRow[k]
			if x := d.sums[r]; x > bound[r] || -x > bound[r] {
				return
			}
		}
	}
	if i == d.n {
		if s > 0 {
			d.found = append(d.found, d.cur)
			d.support = append(d.support, s)
			d.foundAt[s]++
			d.tally++
		}
		return
	}
	d.dfs(i+1, s)
	w, bit := i/64, uint64(1)<<(i%64)
	for _, v := range [...]int64{1, -1} {
		if d.top < d.loE || s+1 > d.top {
			return
		}
		if v > 0 {
			d.cur.plus[w] |= bit
		} else {
			d.cur.minus[w] |= bit
		}
		for k := d.colPtr[i]; k < d.colPtr[i+1]; k++ {
			d.sums[d.colRow[k]] += v * d.colCoef[k]
		}
		d.dfs(i+1, s+1)
		for k := d.colPtr[i]; k < d.colPtr[i+1]; k++ {
			d.sums[d.colRow[k]] -= v * d.colCoef[k]
		}
		d.cur.plus[w] &^= bit
		d.cur.minus[w] &^= bit
		if s == 0 {
			return
		}
	}
}

// level returns the level that runs bound L: L itself, or n above it.
func (d *ladder) level(L int) int { return min(L, d.n) }

// move returns the move of found vector k.
func (d *ladder) move(k int) bitvec.Move {
	return bitvec.NewMoveMasks(d.n, d.found[k].plus, d.found[k].minus)
}

// member reports whether found vector k is in the list of bound L.
func (d *ladder) member(k, L int) bool {
	e := d.level(L)
	return k < d.end[e-d.loE] && d.support[k] <= e
}

// list returns the vectors of bound L, which share one backing array.
func (d *ladder) list(L int) [][]int64 {
	size := d.size(L)
	if size == 0 {
		return nil
	}
	list := make([][]int64, 0, size)
	flat := make([]int64, size*d.n)
	for _, k := range d.order {
		if d.member(k, L) {
			u := flat[:d.n:d.n]
			flat = flat[d.n:]
			d.found[k].fill(u)
			list = append(list, u)
		}
	}
	return list
}

// size returns the length of the list of bound L.
func (d *ladder) size(L int) int {
	c := 0
	for k := range d.support {
		if d.member(k, L) {
			c++
		}
	}
	return c
}

// grows reports whether the list of bound L holds every vector of the
// list of L−1, for L−1 ≥ lo. A level that stopped no earlier than the one
// below it does: a vector of support ≤ L−1 found before L−1 stopped was
// found before L stopped. Otherwise, when a cap stopped L first, it does
// exactly when L−1 found no vector of support ≤ L−1 after that.
func (d *ladder) grows(L int) bool {
	e, e1 := d.level(L), d.level(L-1)
	if e == e1 {
		return true
	}
	for k := d.end[e-d.loE]; k < d.end[e1-d.loE]; k++ {
		if d.support[k] <= e1 {
			return false
		}
	}
	return true
}

// Basis is the constructed homogeneous move set for a problem: M is the
// kernel dimension (the paper's m), Vectors the transition vectors the
// schedule draws from (≥ M entries when the fallback search enriched the
// pool), and TU whether the constraint matrix passed the total
// unimodularity heuristic (choosing the m² vs m³ schedule bound of
// Theorem 1).
type Basis struct {
	Vectors [][]int64
	M       int
	TU      bool

	// SimplifySaved reports how many nonzero entries Algorithm 1 removed,
	// for the ablation study.
	SimplifySaved int
	// UsedTernarySearch records whether the fallback search ran.
	UsedTernarySearch bool
}

// BasisOptions configures BuildBasis. The zero value enables everything.
type BasisOptions struct {
	DisableSimplify bool // ablation switch for opt 1
	Search          TernarySearchOptions
}

// BuildBasis derives the transition vector pool from the constraints:
// rational nullspace basis → Algorithm 1 simplification → ternary kernel
// search fallback when some basis vectors remain outside {-1,0,1}^n or
// the pool fails to expand the feasible space from the seed. The returned
// pool is deduplicated up to sign.
func BuildBasis(p *problems.Problem, opts BasisOptions) (*Basis, error) {
	raw := linalg.Nullspace(p.C)
	m := len(raw)
	if m == 0 {
		return nil, fmt.Errorf("core: %s has a trivial nullspace — the feasible solution is unique", p.Name)
	}
	b := &Basis{M: m, TU: linalg.IsTotallyUnimodularHeuristic(p.C)}

	work := raw
	if !opts.DisableSimplify {
		before := 0
		for _, u := range raw {
			before += NonZero(u)
		}
		work = Simplify(raw)
		after := 0
		for _, u := range work {
			after += NonZero(u)
		}
		b.SimplifySaved = before - after
	}

	// Pools are deduplicated up to sign on packed canonical masks; one map
	// serves every collect call, cleared in between.
	nonTernary := false
	seen := map[signKey]struct{}{}
	collect := func(sets ...[][]int64) [][]int64 {
		clear(seen)
		var pool [][]int64
		for _, set := range sets {
			for _, u := range set {
				s := packSigns(u)
				if !s.ternary || s.nnz == 0 {
					nonTernary = true
					continue
				}
				k := s.key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					pool = append(pool, Canonical(u))
				}
			}
		}
		return pool
	}
	// Candidate pools: the simplified basis alone (cheapest circuits), or
	// its union with the raw rational basis and the integer (HNF) kernel
	// basis — the latter stays in ℤ throughout and frequently contributes
	// ternary vectors the rational elimination misses. Algorithm 1's
	// replacements can break single-move connectivity of the feasible
	// graph, so the simplified-only pool is kept only when a bounded
	// closure shows it reaches exactly the states the union does.
	hnf := linalg.KernelBasisInteger(p.C)
	union := collect(work, raw, hnf)
	if !opts.DisableSimplify {
		// Enrich with ternary combinations of the sparse members (the
		// "switch" moves whose compositions Algorithm 1 needs as chipping
		// material), re-simplify the union against that material, and keep
		// only the improved originals: this is what lets large facility-
		// location kernels reduce their support-50 RREF artifacts down to
		// the natural support-(D+1) facility toggles without bloating the
		// pool with the helper compositions themselves.
		simp := simplifyWith(union, enrichSparsePairs(union, 8, 4*len(union)+16))
		union = collect(union, simp)
	}
	pool := union
	if !opts.DisableSimplify {
		simplifiedOnly := collect(work)
		if len(simplifiedOnly) > 0 && len(simplifiedOnly) < len(union) &&
			sameClosure(p, simplifiedOnly, union, basisClosureCap) {
			pool = simplifiedOnly
		}
	}

	// Fallback: the pool must both span enough directions and actually
	// move the seed solution around the feasible space. If some rational
	// basis vector was non-ternary (Definition 1 cannot express it as a
	// transition Hamiltonian) or no pool move applies to the seed, recover
	// ternary kernel vectors directly.
	needSearch := nonTernary || len(pool) < m || !movesSeed(p, pool)
	if needSearch {
		// The searched pool supersedes the rational-basis pool entirely:
		// the DFS enumerates every ternary kernel vector up to a support
		// bound, which includes whatever Algorithm 1 could have produced,
		// and keeping it canonical makes the simplify ablation meaningful
		// on instances that need the fallback.
		//
		// The support bound is deepened iteratively, measuring the
		// feasible-graph closure of each level's pool: small-support
		// circuits are enumerated exhaustively before any vector cap can
		// bite, and the search stops once two consecutive deepenings add
		// no reachability (compound moves beyond that support do not
		// exist or do not help).
		b.UsedTernarySearch = true
		search := opts.Search
		bound := search.MaxSupport
		if bound == 0 {
			bound = maxSupportDefault(p.N)
		}
		if search.MaxVectors == 0 {
			search.MaxVectors = 2048
		}
		if best := searchPool(p, bound, search); len(best) > 0 {
			pool = best
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: %s: no ternary homogeneous vectors found", p.Name)
	}
	// Order the pool: fewest nonzeros first (cheapest circuits first).
	sort.SliceStable(pool, func(i, j int) bool { return NonZero(pool[i]) < NonZero(pool[j]) })
	b.Vectors = pool
	return b, nil
}

func maxSupportDefault(n int) int {
	if n <= 16 {
		return n
	}
	s := n / 2
	if s < 12 {
		s = 12
	}
	return s
}

// enrichSparsePairs returns the ternary pairwise sums/differences of pool
// members whose support is at most maxSupport (and whose results stay
// within it), capped at maxNew vectors, in canonical sign and deduplicated
// against the pool and each other. Compositions of sparse "switch" moves
// are exactly the chipping material iterated simplification needs. The
// pool holds ternary vectors, as collect returns them; the vectors are
// returned as their packed signs, which is all simplifyWith reads.
func enrichSparsePairs(pool [][]int64, maxSupport, maxNew int) []signs {
	var sparse []signs
	// Sized once for every key that can arrive: the pool's and maxNew more.
	seen := make(map[signKey]struct{}, len(pool)+maxNew)
	for _, u := range pool {
		s := packSigns(u)
		if !s.ternary || s.nnz == 0 {
			continue
		}
		seen[s.key()] = struct{}{}
		if s.nnz <= maxSupport {
			sparse = append(sparse, s)
		}
	}
	out := make([]signs, 0, maxNew)
	for i := 0; i < len(sparse) && len(out) < maxNew; i++ {
		for j := i + 1; j < len(sparse) && len(out) < maxNew; j++ {
			for _, neg := range [...]bool{false, true} {
				if !sparse[i].sumsTernary(&sparse[j], neg) {
					continue
				}
				w := sparse[i]
				w.absorb(&sparse[j], neg)
				if w.nnz == 0 || w.nnz > maxSupport {
					continue
				}
				k := w.key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, signs{supp: w.supp, plus: k.plus, minus: k.minus, nnz: w.nnz, ternary: true})
				}
			}
		}
	}
	return out
}

// basisClosureCap bounds the closure comparison of BuildBasis; beyond it
// the two pools are considered equivalent (both already cover far more
// states than any schedule will track).
const basisClosureCap = 20000

// closureSize runs the feasible-graph BFS closure of the pool from the
// seed, capped at maxStates, and returns the number of reached states.
func closureSize(p *problems.Problem, pool [][]int64, maxStates int) int {
	return problems.FeasibleClosureSize(p, pool, maxStates)
}

// sameClosure reports closureSize(p, sub, maxStates) == closureSize(p,
// full, maxStates) for a pool sub whose moves all belong to full, with one
// closure walk. A capped walk stops right after the insertion that brings
// it to maxStates > 0, so it stops exactly when the closure holds at least
// c = max(maxStates, 2) states, and then reports c. Let R be the closure
// of sub; closure(full) ⊇ R.
//   - If sub's walk stops, |R| ≥ c, so full's walk stops too and both
//     report c.
//   - Otherwise sub's walk reports |R| < c. If R is closed under every move
//     of full, closure(full) = R and both report |R|. If some move leaves
//     R, closure(full) holds more than |R| states, and full's walk reports
//     either c or its larger size; both exceed |R|.
//
// So the pools agree exactly when sub's walk stops at the cap or no move of
// full leaves R, and the check stops at the first move that does.
func sameClosure(p *problems.Problem, sub, full [][]int64, maxStates int) bool {
	r, capped := closureWalk(p, bitvec.NewMoves(sub), maxStates)
	if capped {
		return true
	}
	moves := bitvec.NewMoves(full)
	for _, x := range r.States() {
		for k := range moves {
			// A move that leaves R adds its state; R is not used after.
			if _, _, added := r.Step(x, &moves[k]); added {
				return false
			}
		}
	}
	return true
}

// closureWalk walks the feasible-graph closure of the moves from the seed
// breadth first, and reports whether it stopped at maxStates > 0 the way
// closureSize does: right after the insertion that brings it there.
func closureWalk(p *problems.Problem, moves []bitvec.Move, maxStates int) (r *bitvec.Set, capped bool) {
	r = bitvec.NewSet(p.Init)
	return r, growClosure(r, moves, 0, maxStates)
}

// growClosure extends r, the whole closure of moves[:old] from the seed
// below maxStates, to the closure of every move, stopping as closureWalk
// does. The states r holds take only the moves from old on, since the
// others lead back into r; the states it adds take every move.
func growClosure(r *bitvec.Set, moves []bitvec.Move, old, maxStates int) (capped bool) {
	held := r.Len()
	for i := 0; i < r.Len(); i++ {
		x := r.States()[i]
		from := 0
		if i < held {
			from = old
		}
		for k := from; k < len(moves); k++ {
			if _, _, added := r.Step(x, &moves[k]); added && maxStates > 0 && r.Len() >= maxStates {
				return true
			}
		}
	}
	return false
}

// searchPool runs the fallback search of BuildBasis: the support ladder
// 2..bound, measuring the capped feasible-graph closure of each level's
// list, and returns the list with the largest closure, the lowest level
// on a tie. A list is already a deduplicated canonical pool: the search
// reaches each ternary vector once and fixes its first nonzero entry to
// +1.
func searchPool(p *problems.Problem, bound int, search TernarySearchOptions) [][]int64 {
	const lo = 2
	if bound < lo {
		return nil
	}
	d := searchLadder(p.C, lo, bound, search.NodeBudget, search.MaxVectors)
	bestL, bestClosure := 0, 0
	d.closures(p, lo, bound, basisClosureCap, func(L, size int) bool {
		if size > bestClosure {
			bestL, bestClosure = L, size
		}
		// Compound moves (e.g. color swaps) can appear many support levels
		// above the basic circuits, so the ladder runs to the bound rather
		// than stopping at the first plateau; the instances that reach this
		// path are small enough that the full deepening stays cheap.
		return bestClosure < basisClosureCap
	})
	if bestL == 0 {
		return nil
	}
	return d.list(bestL)
}

// closures visits the bounds lo..hi of the ladder, which searched from lo,
// in order, with the size closureSize reports for each list under
// maxStates, until visit returns false. A bound whose list equals the one
// below it has the same closure and is not visited. A list that holds the
// one below it grows that closure with its new vectors only, since the
// closure of the larger list is the closure of the smaller one closed
// again under the new moves. The walk starts over from the seed when a
// cap stopped this level before the one below it and left out some of its
// vectors, or when the closure below stopped at maxStates.
func (d *ladder) closures(p *problems.Problem, lo, hi, maxStates int, visit func(L, size int) bool) {
	var reach *bitvec.Set
	moves := make([]bitvec.Move, 0, len(d.found))
	capped := false
	for L := lo; L <= hi; L++ {
		grows := L > lo && d.grows(L)
		if grows && d.size(L) == d.size(L-1) {
			continue
		}
		grow := grows && !capped
		old := len(moves)
		if !grow {
			reach, moves, old = bitvec.NewSet(p.Init), moves[:0], 0
		}
		for _, k := range d.order {
			if d.member(k, L) && !(grow && d.member(k, L-1)) {
				moves = append(moves, d.move(k))
			}
		}
		capped = growClosure(reach, moves, old, maxStates)
		if !visit(L, reach.Len()) {
			return
		}
	}
}

// CoverageReport is the diagnostic BuildBasis users run to confirm
// Theorem 1 holds for their formulation: the number of feasible states
// the constructed pool reaches from the seed versus the true feasible
// count (exact only when the instance is narrow enough to enumerate).
type CoverageReport struct {
	Reached int
	// Total is the exhaustive feasible count, or -1 when the instance is
	// too wide to enumerate and only Reached is meaningful.
	Total int
	// Complete is true when Total ≥ 0 and Reached == Total.
	Complete bool
}

// VerifyCoverage builds the basis pool for p and reports how much of the
// feasible space it connects. Use it before trusting a solve on a new
// problem encoding: an incomplete report means the optimum may be
// unreachable and the formulation (or search budgets) needs attention.
func VerifyCoverage(p *problems.Problem, opts BasisOptions) (CoverageReport, error) {
	basis, err := BuildBasis(p, opts)
	if err != nil {
		return CoverageReport{}, err
	}
	rep := CoverageReport{Total: -1}
	rep.Reached = closureSize(p, basis.Vectors, basisClosureCap)
	if p.N <= 24 {
		rep.Total = len(problems.EnumerateFeasible(p, 0))
		rep.Complete = rep.Reached == rep.Total
	}
	return rep, nil
}

// movesSeed reports whether some pool move applies to the seed, that is
// whether the pool's expansion reaches any state beyond it.
func movesSeed(p *problems.Problem, pool [][]int64) bool {
	for _, u := range pool {
		m := bitvec.NewMove(u)
		if _, ok := m.Add(p.Init); ok {
			return true
		}
		if _, ok := m.Sub(p.Init); ok {
			return true
		}
	}
	return false
}
