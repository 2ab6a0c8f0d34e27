package linalg

import (
	"math"
	"math/bits"
	"slices"
)

// This file is the machine-word path of the exact kernels. Nullspace, Rank
// and KernelBasisInteger run their elimination here on int64 and check
// every product and sum; on the first failed check they return the
// math/big result instead. Values stay in the symmetric range
// [−MaxInt64, MaxInt64] (an input entry of MinInt64 goes straight to the
// fallback), so negations and absolute values cannot overflow.
//
// The outputs are identical to the math/big ones. The reduced row echelon
// form of a matrix is unique, so the integer rows below, each divided by
// its pivot entry, are the rational RREF rows, and the primitive kernel
// vectors follow from them exactly. The Hermite loop takes the same pivots
// and the same truncated quotients as its math/big twin.

// mul64 returns a·b and whether it stays in the symmetric int64 range.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// sub64 returns a−b and whether it stays in the symmetric int64 range.
func sub64(a, b int64) (int64, bool) {
	d := a - b
	// Overflow iff a and b differ in sign and d's sign differs from a's.
	return d, (a^b)&(a^d) >= 0 && d != math.MinInt64
}

// abs64 returns |a| for a in the symmetric range.
func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// axpy64 sets x = a·x − b·y elementwise, reporting false on overflow.
func axpy64(x []int64, a int64, b int64, y []int64) bool {
	for i, yi := range y {
		p, ok1 := mul64(a, x[i])
		q, ok2 := mul64(b, yi)
		d, ok3 := sub64(p, q)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		x[i] = d
	}
	return true
}

// makePrimitive divides v by the GCD of its entries.
func makePrimitive(v []int64) {
	var g uint64
	for _, x := range v {
		g = gcd64(g, abs64(x))
	}
	if g > 1 {
		for i := range v {
			v[i] /= int64(g)
		}
	}
}

// inRange reports whether every entry is in the symmetric int64 range.
func inRange(data []int64) bool {
	return !slices.Contains(data, math.MinInt64)
}

// rref64 returns the rows of m reduced by integer Gauss–Jordan elimination,
// each row primitive and each pivot entry positive, with the pivot column
// of every pivot row. Divided by its pivot entry, pivot row i is row i of
// the rational RREF. ok is false on overflow.
func rref64(m *IntMat) (w []int64, pivots []int, ok bool) {
	rows, cols := m.Rows, m.Cols
	if !inRange(m.Data) {
		return nil, nil, false
	}
	w = slices.Clone(m.Data)
	rowOf := func(r int) []int64 { return w[r*cols : (r+1)*cols] }
	for r := 0; r < rows; r++ {
		makePrimitive(rowOf(r))
	}
	row := 0
	for col := 0; col < cols && row < rows; col++ {
		p := row
		for p < rows && w[p*cols+col] == 0 {
			p++
		}
		if p == rows {
			continue
		}
		prow := rowOf(row)
		if p != row {
			for c, x := range rowOf(p) {
				w[p*cols+c], prow[c] = prow[c], x
			}
		}
		if prow[col] < 0 {
			for c := range prow {
				prow[c] = -prow[c]
			}
		}
		piv := prow[col]
		for r := 0; r < rows; r++ {
			rr := rowOf(r)
			if r == row || rr[col] == 0 {
				continue
			}
			// rr ← (piv/g)·rr − (f/g)·prow clears column col and keeps
			// every pivot entry of rr positive.
			g := int64(gcd64(uint64(piv), abs64(rr[col])))
			if !axpy64(rr, piv/g, rr[col]/g, prow) {
				return nil, nil, false
			}
			makePrimitive(rr)
		}
		pivots = append(pivots, col)
		row++
	}
	return w, pivots, true
}

// nullspace64 is Nullspace on machine words; ok is false on overflow.
func nullspace64(m *IntMat) ([][]int64, bool) {
	w, pivots, ok := rref64(m)
	if !ok {
		return nil, false
	}
	cols := m.Cols
	isPivot := make([]bool, cols)
	for _, c := range pivots {
		isPivot[c] = true
	}
	var basis [][]int64
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		// The rational vector has 1 at free and −R[i][free] = −a/d at
		// pivot column i, with a = w[i][free] and d = w[i][pivot] > 0.
		// Scaled by the LCM of the reduced denominators it is integral.
		lcm := int64(1)
		for i, pc := range pivots {
			a, d := w[i*cols+free], w[i*cols+pc]
			if a == 0 {
				continue
			}
			den := d / int64(gcd64(abs64(a), uint64(d)))
			if lcm, ok = mul64(lcm/int64(gcd64(uint64(lcm), uint64(den))), den); !ok {
				return nil, false
			}
		}
		vec := make([]int64, cols)
		vec[free] = lcm
		for i, pc := range pivots {
			a, d := w[i*cols+free], w[i*cols+pc]
			if a == 0 {
				continue
			}
			g := int64(gcd64(abs64(a), uint64(d)))
			if vec[pc], ok = mul64(-a/g, lcm/(d/g)); !ok {
				return nil, false
			}
		}
		makePrimitive(vec)
		basis = append(basis, vec)
	}
	return basis, true
}

// kernelBasisInteger64 is KernelBasisInteger on machine words, with the
// working matrix stored column-major so that every column operation runs
// over contiguous memory; ok is false on overflow.
func kernelBasisInteger64(m *IntMat) ([][]int64, bool) {
	rows, cols := m.Rows, m.Cols
	if !inRange(m.Data) {
		return nil, false
	}
	h := rows + cols
	w := make([]int64, cols*h)
	column := func(c int) []int64 { return w[c*h : (c+1)*h] }
	for c := 0; c < cols; c++ {
		col := column(c)
		for r := 0; r < rows; r++ {
			col[r] = m.Data[r*cols+c]
		}
		col[rows+c] = 1
	}

	lead := 0
	for col := 0; col < cols && lead < rows; {
		pivot := -1
		var least uint64
		for c := col; c < cols; c++ {
			if v := abs64(w[c*h+lead]); v != 0 && (pivot == -1 || v < least) {
				pivot, least = c, v
			}
		}
		if pivot == -1 {
			lead++
			continue
		}
		pc := column(col)
		if pivot != col {
			for r, x := range column(pivot) {
				w[pivot*h+r], pc[r] = pc[r], x
			}
		}
		if pc[lead] < 0 {
			for r := range pc {
				pc[r] = -pc[r]
			}
		}
		reducedAll := true
		for c := col + 1; c < cols; c++ {
			cc := column(c)
			if cc[lead] == 0 {
				continue
			}
			if !axpy64(cc, 1, cc[lead]/pc[lead], pc) {
				return nil, false
			}
			if cc[lead] != 0 {
				reducedAll = false
			}
		}
		if reducedAll {
			col++
			lead++
		}
	}

	// Kernel columns: top block zero, bottom block not.
	nonzero := func(x int64) bool { return x != 0 }
	var out [][]int64
	for c := 0; c < cols; c++ {
		col := column(c)
		if slices.ContainsFunc(col[:rows], nonzero) || !slices.ContainsFunc(col[rows:], nonzero) {
			continue
		}
		vec := slices.Clone(col[rows:])
		makePrimitive(vec)
		out = append(out, vec)
	}
	return out, true
}
