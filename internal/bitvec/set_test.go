package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

// compareReference is the bit-by-bit definition of Compare: length
// first, then the lowest differing bit, set in the larger vector.
func compareReference(v, o Vec) int {
	if v.n != o.n {
		if v.n < o.n {
			return -1
		}
		return 1
	}
	for i := 0; i < v.n; i++ {
		if a, b := v.Bit(i), o.Bit(i); a != b {
			if b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestCompareMatchesReference checks the word-wise Compare against the
// bit-by-bit reference at every length 1–192: random pairs, pairs that
// differ in one bit, equal pairs, and vectors of different lengths.
func TestCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(a, b Vec) {
		t.Helper()
		if got, want := a.Compare(b), compareReference(a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	for n := 1; n <= MaxBits; n++ {
		for trial := 0; trial < 20; trial++ {
			a, b := randomVec(rng, n), randomVec(rng, n)
			check(a, b)
			check(a, a)
			c := a
			c.Flip(rng.Intn(n))
			check(a, c)
			check(c, a)
			check(a, randomVec(rng, 1+rng.Intn(MaxBits)))
		}
	}
}

// FuzzCompare decodes two vectors of one length from bytes and checks
// Compare against the reference, both ways round.
func FuzzCompare(f *testing.F) {
	f.Add(byte(3), []byte{0b010}, []byte{0b110})
	f.Add(byte(64), []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(129), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0})
	f.Add(byte(191), []byte{0xff}, []byte{0xfe})
	f.Fuzz(func(t *testing.T, nb byte, x, y []byte) {
		n := 1 + int(nb)%MaxBits
		vec := func(data []byte) Vec {
			v := New(n)
			for i := 0; i < n && i/8 < len(data); i++ {
				v.Set(i, data[i/8]>>(i%8)&1 == 1)
			}
			return v
		}
		a, b := vec(x), vec(y)
		if got, want := a.Compare(b), compareReference(a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := b.Compare(a), compareReference(b, a); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", b, a, got, want)
		}
	})
}

// TestSetMatchesMap drives the state set and a Go map with the same
// insertions, duplicates included, at widths across the word boundaries
// and through several table doublings: membership, the dense index of
// every state (its insertion position) and the insertion order must
// agree, and so must both after Sort renumbers the states.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 5, 63, 64, 65, 128, 129, 192} {
		seed := New(n)
		s := NewSet(seed)
		want := map[Vec]int32{seed: 0}
		order := []Vec{seed}
		for k := 0; k < 3000; k++ {
			y := New(n)
			for i := 0; i < n; i++ {
				// A few distinct low bits make duplicates common.
				y.Set(i, rng.Intn(3) == 0 && (i < 12 || rng.Intn(8) == 0))
			}
			idx, added := s.Add(y)
			w, held := want[y]
			if !held {
				w = int32(len(order))
				want[y] = w
				order = append(order, y)
			}
			if added == held || idx != w {
				t.Fatalf("n=%d: Add(%v) = %d, %v; want %d, %v", n, y, idx, added, w, !held)
			}
			if got, ok := s.Index(y); !ok || got != w || s.Len() != len(want) {
				t.Fatalf("n=%d: set of %d states disagrees with a map of %d at %v", n, s.Len(), len(want), y)
			}
		}
		if !slices.Equal(s.States(), order) {
			t.Fatalf("n=%d: states are not in insertion order", n)
		}
		// The seed is all zeros; the same words at another length are a
		// different vector.
		if _, ok := s.Index(New(n - 1)); ok {
			t.Fatalf("n=%d: a vector of another length is held", n)
		}
		if n >= 12 && len(s.slots) < 8*minSetSlots {
			t.Fatalf("n=%d: %d states grew the table only to %d slots", n, s.Len(), len(s.slots))
		}

		s.Sort()
		sorted := slices.Clone(order)
		slices.SortFunc(sorted, compareReference)
		if !slices.Equal(s.States(), sorted) {
			t.Fatalf("n=%d: Sort does not leave the states in Compare order", n)
		}
		for k, x := range sorted {
			if got, ok := s.Index(x); !ok || got != int32(k) {
				t.Fatalf("n=%d: after Sort, state %v at %d has index %d (held %v)", n, x, k, got, ok)
			}
		}
	}
}

// TestSetLookupsZeroAllocs gates the table: a lookup, held or not, and
// an Add or a Step that reaches a held state allocate nothing.
func TestSetLookupsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	s := NewSet(New(150))
	var probes []Vec
	var moves []Move
	for len(probes) < 200 {
		v := randomVec(rng, 150)
		s.Add(v)
		m := NewMove(randomMove(rng, v))
		s.Step(v, &m)
		probes = append(probes, v, randomVec(rng, 150))
		moves = append(moves, m, m)
	}
	held := 0
	allocs := testing.AllocsPerRun(100, func() {
		held = 0
		for k, v := range probes {
			if _, ok := s.Index(v); ok {
				held++
				s.Add(v)
				s.Step(v, &moves[k])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Set lookups allocate %v times per run; want 0", allocs)
	}
	if held != 100 {
		t.Fatalf("%d of the probes are held; want the 100 added", held)
	}
}
