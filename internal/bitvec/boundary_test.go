package bitvec

import (
	"strings"
	"testing"
)

// boundaryLengths are the vector lengths at and around every 64-bit word
// edge, where index arithmetic (i/64, i%64) is most likely to break.
var boundaryLengths = []int{1, 63, 64, 65, 127, 128, 129, 191, 192}

// edgeIndices returns the in-range indices worth probing for a vector of
// length n: both ends plus every word boundary the length straddles.
func edgeIndices(n int) []int {
	cand := []int{0, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, n - 1}
	var out []int
	seen := map[int]bool{}
	for _, i := range cand {
		if i >= 0 && i < n && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func TestBoundarySetGetFlip(t *testing.T) {
	for _, n := range boundaryLengths {
		v := New(n)
		for _, i := range edgeIndices(n) {
			if v.Bit(i) {
				t.Fatalf("n=%d: fresh vector has bit %d set", n, i)
			}
			v.Set(i, true)
			if !v.Bit(i) {
				t.Fatalf("n=%d: Set(%d) did not stick", n, i)
			}
			// Setting one bit must not disturb its word-boundary neighbors.
			for _, j := range edgeIndices(n) {
				if j != i && v.Bit(j) {
					t.Fatalf("n=%d: Set(%d) also set bit %d", n, i, j)
				}
			}
			v.Flip(i)
			if v.Bit(i) {
				t.Fatalf("n=%d: Flip(%d) did not clear", n, i)
			}
			v.Flip(i)
			v.Set(i, false)
			if v.Bit(i) {
				t.Fatalf("n=%d: Set(%d,false) did not clear", n, i)
			}
		}
	}
}

func TestBoundaryOnesCountIntsString(t *testing.T) {
	for _, n := range boundaryLengths {
		v := New(n)
		want := 0
		for _, i := range edgeIndices(n) {
			v.Set(i, true)
			want++
		}
		if got := v.OnesCount(); got != want {
			t.Fatalf("n=%d: OnesCount = %d, want %d", n, got, want)
		}
		ints := v.Ints()
		if len(ints) != n {
			t.Fatalf("n=%d: Ints length %d", n, len(ints))
		}
		s := v.String()
		if len(s) != n {
			t.Fatalf("n=%d: String length %d", n, len(s))
		}
		sum := 0
		for i := 0; i < n; i++ {
			sum += ints[i]
			if (ints[i] == 1) != v.Bit(i) || (s[i] == '1') != v.Bit(i) {
				t.Fatalf("n=%d: Ints/String disagree with Bit at %d", n, i)
			}
		}
		if sum != want {
			t.Fatalf("n=%d: Ints sums to %d, want %d", n, sum, want)
		}
		// String round-trips through FromString at every boundary length.
		back, err := FromString(s)
		if err != nil || !back.Equal(v) {
			t.Fatalf("n=%d: FromString(String()) round trip failed (err=%v)", n, err)
		}
	}
}

func TestBoundaryMoveAcrossWords(t *testing.T) {
	for _, n := range boundaryLengths {
		if n < 2 {
			continue
		}
		idx := edgeIndices(n)
		// +1 on every probed index from zero: valid, lands on exactly
		// those bits.
		d := make([]int64, n)
		for _, i := range idx {
			d[i] = 1
		}
		v := New(n)
		u := NewMove(d)
		got, ok := u.Add(v)
		if !ok || got.OnesCount() != len(idx) {
			t.Fatalf("n=%d: Add(+edges) ok=%v count=%d want %d", n, ok, got.OnesCount(), len(idx))
		}
		// Subtracting the same move returns to zero; subtracting from zero
		// is annihilated.
		back, ok := u.Sub(got)
		if !ok || back.OnesCount() != 0 {
			t.Fatalf("n=%d: Sub round trip failed", n)
		}
		if _, ok := u.Sub(v); ok {
			t.Fatalf("n=%d: Sub on zero vector should annihilate", n)
		}
		if _, ok := u.Add(got); ok {
			t.Fatalf("n=%d: Add onto set bits should annihilate", n)
		}
	}
}

func TestBoundaryCompare(t *testing.T) {
	for _, n := range boundaryLengths {
		a := New(n)
		for _, i := range edgeIndices(n) {
			b := New(n)
			b.Set(i, true)
			if a.Compare(b) >= 0 || b.Compare(a) <= 0 || b.Compare(b) != 0 {
				t.Fatalf("n=%d: Compare ordering wrong at bit %d", n, i)
			}
		}
	}
	// Shorter sorts before longer regardless of content.
	long := New(65)
	short := New(64)
	short.Set(0, true)
	if short.Compare(long) != -1 || long.Compare(short) != 1 {
		t.Fatal("length must dominate Compare")
	}
}

func TestBoundaryOutOfRangePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	for _, n := range []int{1, 64, 192} {
		v := New(n)
		mustPanic("Bit(n)", func() { v.Bit(n) })
		mustPanic("Bit(-1)", func() { v.Bit(-1) })
		mustPanic("Set(n)", func() { v.Set(n, true) })
		mustPanic("Flip(n)", func() { v.Flip(n) })
	}
	mustPanic("New(MaxBits+1)", func() { New(MaxBits + 1) })
	mustPanic("New(-1)", func() { New(-1) })
	mustPanic("FromUint64(n>64)", func() { FromUint64(0, 65) })
	mustPanic("Uint64 on wide vec", func() { v := New(65); _ = v.Uint64() })
}

// TestFromStringOversized pins the decoder fix: input longer than the
// capacity is an error (it reaches this package from external problem
// files), never a panic.
func TestFromStringOversized(t *testing.T) {
	if v, err := FromString(strings.Repeat("0", MaxBits)); err != nil || v.Len() != MaxBits {
		t.Fatalf("FromString at exactly MaxBits failed: %v", err)
	}
	if _, err := FromString(strings.Repeat("0", MaxBits+1)); err == nil {
		t.Fatal("FromString accepted MaxBits+1 characters")
	}
	if _, err := FromString(strings.Repeat("1", 100000)); err == nil {
		t.Fatal("FromString accepted a 100k-character string")
	}
}
