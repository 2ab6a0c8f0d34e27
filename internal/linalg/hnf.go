package linalg

import (
	"fmt"
	"math/big"
)

// This file implements integer (Hermite-style) kernel extraction: an
// alternative to the rational RREF nullspace that stays in ℤ throughout
// and often produces sparser, smaller-entry bases — exactly what the
// transition-Hamiltonian construction wants, since only {-1,0,1} kernel
// vectors are realizable as transition Hamiltonians.

// KernelBasisInteger computes an integer basis of ker(C) by column-style
// Hermite reduction: the identity is adjoined below C and unimodular
// column operations triangularize the top block; columns whose top part
// becomes zero carry kernel vectors in their bottom part. Every returned
// vector is made primitive (divided by the GCD of its entries).
func KernelBasisInteger(m *IntMat) [][]int64 {
	if basis, ok := kernelBasisInteger64(m); ok {
		return basis
	}
	return kernelBasisIntegerBig(m)
}

// kernelBasisIntegerBig is KernelBasisInteger over math/big.Int, the
// overflow fallback of kernelBasisInteger64.
func kernelBasisIntegerBig(m *IntMat) [][]int64 {
	rows, cols := m.Rows, m.Cols
	// Working matrix W of size (rows+cols) × cols over big.Int:
	// top = C, bottom = I.
	w := make([][]*big.Int, rows+cols)
	for r := 0; r < rows; r++ {
		w[r] = make([]*big.Int, cols)
		for c := 0; c < cols; c++ {
			w[r][c] = big.NewInt(m.At(r, c))
		}
	}
	for r := 0; r < cols; r++ {
		w[rows+r] = make([]*big.Int, cols)
		for c := 0; c < cols; c++ {
			if r == c {
				w[rows+r][c] = big.NewInt(1)
			} else {
				w[rows+r][c] = big.NewInt(0)
			}
		}
	}

	swapCols := func(a, b int) {
		for r := range w {
			w[r][a], w[r][b] = w[r][b], w[r][a]
		}
	}
	// addCol adds f × column src into column dst.
	addCol := func(dst, src int, f *big.Int) {
		if f.Sign() == 0 {
			return
		}
		t := new(big.Int)
		for r := range w {
			t.Mul(f, w[r][src])
			w[r][dst].Add(w[r][dst], t)
		}
	}
	negCol := func(c int) {
		for r := range w {
			w[r][c].Neg(w[r][c])
		}
	}

	lead := 0 // next top row to clear
	for col := 0; col < cols && lead < rows; {
		// Find the column (≥ col) with the smallest nonzero |entry| in row
		// `lead`; Euclidean-reduce the others against it.
		pivot := -1
		for c := col; c < cols; c++ {
			if w[lead][c].Sign() == 0 {
				continue
			}
			if pivot == -1 || absCmp(w[lead][c], w[lead][pivot]) < 0 {
				pivot = c
			}
		}
		if pivot == -1 {
			lead++
			continue
		}
		swapCols(col, pivot)
		if w[lead][col].Sign() < 0 {
			negCol(col)
		}
		reducedAll := true
		for c := col + 1; c < cols; c++ {
			if w[lead][c].Sign() == 0 {
				continue
			}
			q := new(big.Int).Quo(w[lead][c], w[lead][col])
			addCol(c, col, new(big.Int).Neg(q))
			if w[lead][c].Sign() != 0 {
				reducedAll = false
			}
		}
		if reducedAll {
			col++
			lead++
		}
		// Otherwise repeat with the new smallest entry (Euclidean loop).
	}

	// Kernel columns: top block entirely zero.
	var out [][]int64
	for c := 0; c < cols; c++ {
		zeroTop := true
		for r := 0; r < rows; r++ {
			if w[r][c].Sign() != 0 {
				zeroTop = false
				break
			}
		}
		if !zeroTop {
			continue
		}
		vec := make([]*big.Int, cols)
		nonzero := false
		for r := 0; r < cols; r++ {
			vec[r] = new(big.Int).Set(w[rows+r][c])
			if vec[r].Sign() != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		out = append(out, primitiveBigInt(vec))
	}
	return out
}

// primitiveBigInt divides a big.Int vector by the GCD of its entries and
// converts to int64, panicking on overflow (kernel entries of the
// benchmark constraint matrices are tiny).
func primitiveBigInt(v []*big.Int) []int64 {
	g := new(big.Int)
	for _, x := range v {
		if x.Sign() == 0 {
			continue
		}
		if g.Sign() == 0 {
			g.Abs(x)
		} else {
			g.GCD(nil, nil, g, new(big.Int).Abs(x))
		}
	}
	out := make([]int64, len(v))
	for i, x := range v {
		n := new(big.Int).Set(x)
		if g.Sign() != 0 {
			n.Div(n, g)
		}
		if !n.IsInt64() {
			panic(fmt.Sprintf("linalg: HNF kernel entry %v overflows int64", n))
		}
		out[i] = n.Int64()
	}
	return out
}

func absCmp(a, b *big.Int) int {
	return new(big.Int).Abs(a).Cmp(new(big.Int).Abs(b))
}
