package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rasengan/internal/linalg"
	"rasengan/internal/problems"
)

// The int64 kernels must return exactly what their math/big twins return
// (which stay as the overflow fallback): the same vectors in the same
// order, or the same panic when an output entry overflows int64.

// outcome runs f and reports its result, or the panic it raised.
func outcome(f func(*linalg.IntMat) [][]int64, m *linalg.IntMat) (out [][]int64, panicked any) {
	defer func() { panicked = recover() }()
	return f(m), nil
}

func equalVectors(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }

// checkExactKernels compares Nullspace and KernelBasisInteger with their
// math/big oracles on m, and reports whether the int64 paths both ran
// without overflow.
func checkExactKernels(t testing.TB, name string, m *linalg.IntMat) (fast bool) {
	t.Helper()
	fast = true
	for _, k := range []struct {
		kernel string
		public func(*linalg.IntMat) [][]int64
		oracle func(*linalg.IntMat) [][]int64
		word   func(*linalg.IntMat) ([][]int64, bool)
	}{
		{"Nullspace", linalg.Nullspace, linalg.NullspaceBig, linalg.Nullspace64},
		{"KernelBasisInteger", linalg.KernelBasisInteger, linalg.KernelBasisIntegerBig, linalg.KernelBasisInteger64},
	} {
		want, wantPanic := outcome(k.oracle, m)
		got, gotPanic := outcome(k.public, m)
		if (wantPanic != nil) != (gotPanic != nil) || !equalVectors(got, want) {
			t.Fatalf("%s: %s(%v)\n  = %v (panic %v)\nwant %v (panic %v)", name, k.kernel, m, got, gotPanic, want, wantPanic)
		}
		words, ok := k.word(m)
		if ok && (wantPanic != nil || !equalVectors(words, want)) {
			t.Fatalf("%s: int64 %s(%v) = %v without overflow; math/big gives %v (panic %v)", name, k.kernel, m, words, want, wantPanic)
		}
		fast = fast && ok
	}
	return fast
}

func randomMatrix(rng *rand.Rand, rows, cols int, entry func() int64) *linalg.IntMat {
	m := linalg.NewIntMat(rows, cols)
	for i := range m.Data {
		if rng.Intn(3) != 0 {
			m.Data[i] = entry()
		}
	}
	return m
}

func TestExactKernelsSuiteMatrices(t *testing.T) {
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			name := fmt.Sprintf("%s case %d", b.Label(), c)
			if !checkExactKernels(t, name, b.Generate(c).C) {
				t.Errorf("%s: the int64 path overflowed on a suite matrix", name)
			}
		}
	}
}

func TestExactKernelsRandomSmallMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 600; trial++ {
		rows, cols := rng.Intn(9), 1+rng.Intn(14)
		span := int64(1 + rng.Intn(9))
		m := randomMatrix(rng, rows, cols, func() int64 { return rng.Int63n(2*span+1) - span })
		if !checkExactKernels(t, fmt.Sprintf("random %d", trial), m) {
			t.Fatalf("random %d: small entries overflowed int64: %v", trial, m)
		}
	}
}

// lowKernelMatrix returns a rows×(rows+free) matrix whose rows are
// combinations of the rows of [I | A], A small, with coefficients of about
// 2^bits: the elimination meets products far beyond int64, while the
// kernel (that of [I | A]) stays small enough for math/big to return it.
func lowKernelMatrix(rng *rand.Rand, rows, free int, bits uint) *linalg.IntMat {
	cols := rows + free
	base := linalg.NewIntMat(rows, cols)
	for r := 0; r < rows; r++ {
		base.Set(r, r, 1)
		for c := rows; c < cols; c++ {
			base.Set(r, c, int64(rng.Intn(5)-2))
		}
	}
	m := linalg.NewIntMat(rows, cols)
	for r := 0; r < rows; r++ {
		for k := 0; k < rows; k++ {
			f := rng.Int63n(1<<bits) + 1<<(bits-1)
			for c := 0; c < cols; c++ {
				m.Data[r*cols+c] += f * base.At(k, c)
			}
		}
	}
	return m
}

// TestExactKernelsFallback feeds matrices on which the int64 path must
// give up — entries near 2^40, eliminations whose integer rows (the
// RREF denominators times their numerators) pass 2^62, and MinInt64
// entries — and checks that the public kernels still return the math/big
// result.
func TestExactKernelsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	fellBack := 0
	for trial := 0; trial < 60; trial++ {
		var m *linalg.IntMat
		switch trial % 3 {
		case 0: // entries near 2^40
			m = lowKernelMatrix(rng, 2+rng.Intn(3), 1+rng.Intn(4), 40)
		case 1: // moderate entries, growth past 2^62 over several pivots
			m = lowKernelMatrix(rng, 4+rng.Intn(3), 1+rng.Intn(4), 22)
		case 2:
			m = randomMatrix(rng, 1+rng.Intn(4), 2+rng.Intn(6), func() int64 { return int64(rng.Intn(5) - 2) })
			m.Data[rng.Intn(len(m.Data))] = math.MinInt64
		}
		if !checkExactKernels(t, fmt.Sprintf("fallback %d", trial), m) {
			fellBack++
		}
	}
	if fellBack < 40 {
		t.Fatalf("only %d of 60 matrices forced the fallback; the generators no longer reach it", fellBack)
	}
}

// FuzzExactKernels decodes rows, cols and (value, shift) byte pairs into a
// matrix with entries int8·2^shift, so inputs range from small
// coefficients to int64 wrap-around, and compares both kernels with the
// math/big oracles.
func FuzzExactKernels(f *testing.F) {
	f.Add(byte(2), byte(5), []byte{1, 0, 1, 0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 255, 0})
	f.Add(byte(3), byte(6), []byte{2, 0, 3, 0, 5, 1, 7, 40, 9, 40, 11, 40, 250, 3, 13, 0})
	f.Add(byte(1), byte(3), []byte{1, 62, 3, 61, 128, 63})
	f.Fuzz(func(t *testing.T, rb, cb byte, data []byte) {
		rows, cols := int(rb)%7, 1+int(cb)%10
		m := linalg.NewIntMat(rows, cols)
		for k := 0; k+1 < len(data) && k/2 < len(m.Data); k += 2 {
			m.Data[k/2] = int64(int8(data[k])) << (data[k+1] % 64)
		}
		checkExactKernels(t, "fuzz", m)
	})
}
