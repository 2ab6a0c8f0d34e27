// Package linalg implements the exact linear algebra that underpins the
// transition-Hamiltonian construction: integer matrices, rational
// reduced-row-echelon form, rank, and nullspace (homogeneous solution)
// bases.
//
// All arithmetic is exact, so the homogeneous basis vectors extracted from
// totally unimodular constraint matrices come out with entries in
// {-1, 0, 1} rather than floating-point approximations. The elimination
// runs on overflow-checked int64 (exact64.go) and falls back to math/big
// when a check fails.
package linalg

import (
	"fmt"
	"math/big"
)

// IntMat is a dense integer matrix stored row-major. It is the natural
// representation for the constraint matrix C of a constrained binary
// optimization problem.
type IntMat struct {
	Rows, Cols int
	Data       []int64 // len Rows*Cols, Data[r*Cols+c]
}

// NewIntMat returns a zero matrix with the given shape.
func NewIntMat(rows, cols int) *IntMat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &IntMat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
}

// FromRows builds an IntMat from row slices; all rows must share a length.
func FromRows(rows [][]int64) *IntMat {
	if len(rows) == 0 {
		return NewIntMat(0, 0)
	}
	m := NewIntMat(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: len %d != %d", r, len(row), m.Cols))
		}
		copy(m.Data[r*m.Cols:], row)
	}
	return m
}

// At returns element (r, c).
func (m *IntMat) At(r, c int) int64 {
	m.check(r, c)
	return m.Data[r*m.Cols+c]
}

// Set assigns element (r, c).
func (m *IntMat) Set(r, c int, v int64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] = v
}

// Row returns a copy of row r.
func (m *IntMat) Row(r int) []int64 {
	out := make([]int64, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// Clone returns a deep copy of m.
func (m *IntMat) Clone() *IntMat {
	c := NewIntMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVecInt returns C·x for an integer vector x.
func (m *IntMat) MulVecInt(x []int64) []int64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecInt dim mismatch %d != %d", len(x), m.Cols))
	}
	out := make([]int64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s int64
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// MulVecBits returns C·x for a 0/1 vector given as ints.
func (m *IntMat) MulVecBits(x []int) []int64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecBits dim mismatch %d != %d", len(x), m.Cols))
	}
	out := make([]int64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s int64
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			if x[c] != 0 {
				s += v
			}
		}
		out[r] = s
	}
	return out
}

// SatisfiesEq reports whether C·x = b for the 0/1 vector x.
func (m *IntMat) SatisfiesEq(x []int, b []int64) bool {
	if len(b) != m.Rows {
		panic(fmt.Sprintf("linalg: SatisfiesEq rhs dim %d != %d", len(b), m.Rows))
	}
	got := m.MulVecBits(x)
	for i := range b {
		if got[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *IntMat) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", r, c, m.Rows, m.Cols))
	}
}

// String renders the matrix for debugging.
func (m *IntMat) String() string {
	s := ""
	for r := 0; r < m.Rows; r++ {
		s += fmt.Sprintln(m.Row(r))
	}
	return s
}

// ratMat is a rational working copy used by the math/big elimination, the
// overflow fallback of rref64.
type ratMat struct {
	rows, cols int
	data       []*big.Rat
}

func newRatMat(m *IntMat) *ratMat {
	rm := &ratMat{rows: m.Rows, cols: m.Cols, data: make([]*big.Rat, m.Rows*m.Cols)}
	for i, v := range m.Data {
		rm.data[i] = big.NewRat(v, 1)
	}
	return rm
}

func (m *ratMat) at(r, c int) *big.Rat { return m.data[r*m.cols+c] }

// rref reduces m in place to reduced row echelon form and returns the pivot
// column of each pivot row.
func (m *ratMat) rref() []int {
	var pivots []int
	row := 0
	for col := 0; col < m.cols && row < m.rows; col++ {
		// Find a pivot in this column at or below `row`.
		p := -1
		for r := row; r < m.rows; r++ {
			if m.at(r, col).Sign() != 0 {
				p = r
				break
			}
		}
		if p == -1 {
			continue
		}
		if p != row {
			for c := 0; c < m.cols; c++ {
				m.data[row*m.cols+c], m.data[p*m.cols+c] = m.data[p*m.cols+c], m.data[row*m.cols+c]
			}
		}
		// Normalize pivot row.
		inv := new(big.Rat).Inv(m.at(row, col))
		for c := col; c < m.cols; c++ {
			m.at(row, c).Mul(m.at(row, c), inv)
		}
		// Eliminate column from all other rows.
		for r := 0; r < m.rows; r++ {
			if r == row || m.at(r, col).Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m.at(r, col))
			for c := col; c < m.cols; c++ {
				t := new(big.Rat).Mul(f, m.at(row, c))
				m.at(r, c).Sub(m.at(r, c), t)
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return pivots
}

// Rank returns the rank of m over the rationals.
func Rank(m *IntMat) int {
	if _, pivots, ok := rref64(m); ok {
		return len(pivots)
	}
	return len(newRatMat(m).rref())
}

// Nullspace returns an integer basis of the nullspace of m (solutions of
// C·u = 0), one vector per free column. Each basis vector is scaled by the
// least common multiple of its denominators and divided by the GCD of its
// entries, producing primitive integer vectors. For totally unimodular
// constraint matrices — the common case for the benchmark families — the
// resulting entries lie in {-1, 0, 1}.
func Nullspace(m *IntMat) [][]int64 {
	if basis, ok := nullspace64(m); ok {
		return basis
	}
	return nullspaceBig(m)
}

// nullspaceBig is Nullspace over math/big.Rat.
func nullspaceBig(m *IntMat) [][]int64 {
	rm := newRatMat(m)
	pivots := rm.rref()
	isPivot := make([]bool, m.Cols)
	pivotRowOf := make(map[int]int, len(pivots))
	for r, c := range pivots {
		isPivot[c] = true
		pivotRowOf[c] = r
	}
	var basis [][]int64
	for free := 0; free < m.Cols; free++ {
		if isPivot[free] {
			continue
		}
		// Set the free variable to 1; pivot variables follow from RREF:
		// x_pivot = -R[pivotRow][free].
		vec := make([]*big.Rat, m.Cols)
		for i := range vec {
			vec[i] = new(big.Rat)
		}
		vec[free].SetInt64(1)
		for _, pc := range pivots {
			r := pivotRowOf[pc]
			vec[pc].Neg(rm.at(r, free))
		}
		basis = append(basis, primitiveInt(vec))
	}
	return basis
}

// primitiveInt scales a rational vector to a primitive integer vector.
func primitiveInt(v []*big.Rat) []int64 {
	lcm := big.NewInt(1)
	for _, x := range v {
		if x.Sign() == 0 {
			continue
		}
		d := x.Denom()
		g := new(big.Int).GCD(nil, nil, lcm, d)
		lcm.Div(new(big.Int).Mul(lcm, d), g)
	}
	ints := make([]*big.Int, len(v))
	gcd := new(big.Int)
	for i, x := range v {
		n := new(big.Int).Mul(x.Num(), new(big.Int).Div(lcm, x.Denom()))
		ints[i] = n
		if n.Sign() != 0 {
			if gcd.Sign() == 0 {
				gcd.Abs(n)
			} else {
				gcd.GCD(nil, nil, gcd, new(big.Int).Abs(n))
			}
		}
	}
	out := make([]int64, len(v))
	for i, n := range ints {
		if gcd.Sign() != 0 {
			n.Div(n, gcd)
		}
		if !n.IsInt64() {
			panic("linalg: nullspace entry overflows int64")
		}
		out[i] = n.Int64()
	}
	return out
}

// NullityCheck verifies C·u = 0 for every vector of a candidate basis and
// returns an error naming the first violation. Experiments use it as a
// self-check after basis transformations.
func NullityCheck(m *IntMat, basis [][]int64) error {
	for k, u := range basis {
		got := m.MulVecInt(u)
		for r, g := range got {
			if g != 0 {
				return fmt.Errorf("linalg: basis vector %d violates row %d: C·u = %d", k, r, g)
			}
		}
	}
	return nil
}

// IsTotallyUnimodularHeuristic reports whether every entry of m lies in
// {-1,0,1} and every 2x2 minor lies in {-1,0,1}. This is a necessary
// condition for total unimodularity and a cheap classifier for choosing the
// m² vs m³ schedule bound of Theorem 1; full TU testing is NP-ish and not
// needed for the benchmark families.
func IsTotallyUnimodularHeuristic(m *IntMat) bool {
	for _, v := range m.Data {
		if v < -1 || v > 1 {
			return false
		}
	}
	support := make([]int, 0, m.Cols)
	for r1 := 0; r1 < m.Rows; r1++ {
		row1 := m.Data[r1*m.Cols : (r1+1)*m.Cols]
		for r2 := r1 + 1; r2 < m.Rows; r2++ {
			row2 := m.Data[r2*m.Cols : (r2+1)*m.Cols]
			// A column that is zero in both rows only yields zero minors.
			support = support[:0]
			for c := range row1 {
				if row1[c] != 0 || row2[c] != 0 {
					support = append(support, c)
				}
			}
			for i, c1 := range support {
				a, c := row1[c1], row2[c1]
				for _, c2 := range support[i+1:] {
					if det := a*row2[c2] - row1[c2]*c; det < -1 || det > 1 {
						return false
					}
				}
			}
		}
	}
	return true
}
