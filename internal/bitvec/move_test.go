package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

// addSignedReference is the per-entry definition of a ±u move: v + d over
// the integers, valid only when every component stays in {0,1}.
func addSignedReference(v Vec, d []int64) (Vec, bool) {
	out := v
	for i, di := range d {
		x := int64(v.BitInt(i)) + di
		if x < 0 || x > 1 {
			return Vec{}, false
		}
		out.Set(i, x == 1)
	}
	return out, true
}

func randomVec(rng *rand.Rand, n int) Vec {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// randomMove returns a sparse {-1,0,1} vector whose every entry is a valid
// step of v+d with probability 7/8, so Add and Sub both meet valid and
// annihilated moves.
func randomMove(rng *rand.Rand, v Vec) []int64 {
	d := make([]int64, v.Len())
	for k := 0; k < 1+rng.Intn(4); k++ {
		i := rng.Intn(v.Len())
		d[i] = 1
		if v.Bit(i) != (rng.Intn(8) == 0) {
			d[i] = -1
		}
	}
	return d
}

// TestSignedMovesMatchReference compares Move.Add and Move.Sub with the
// per-entry reference at lengths on both sides of every word boundary.
func TestSignedMovesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, MaxBits} {
		for trial := 0; trial < 300; trial++ {
			v := randomVec(rng, n)
			d := randomMove(rng, v)
			if trial%3 == 0 {
				// Dense moves too, so every word carries both masks.
				for i := range d {
					d[i] = int64(rng.Intn(3) - 1)
				}
			}
			neg := make([]int64, n)
			for i := range d {
				neg[i] = -d[i]
			}
			m := NewMove(d)
			gotA, okA := m.Add(v)
			wantA, wantOKA := addSignedReference(v, d)
			gotS, okS := m.Sub(v)
			wantS, wantOKS := addSignedReference(v, neg)
			if okA != wantOKA || gotA != wantA {
				t.Fatalf("n=%d Add(%v, %v) = %v,%v; want %v,%v", n, v, d, gotA, okA, wantA, wantOKA)
			}
			if okS != wantOKS || gotS != wantS {
				t.Fatalf("n=%d Sub(%v, %v) = %v,%v; want %v,%v", n, v, d, gotS, okS, wantS, wantOKS)
			}
		}
	}
}

// TestStepMatchesAddSub checks Set.Step against Add, then Sub, and the
// set's own Add, at lengths on both sides of every word boundary, the zero
// move included.
func TestStepMatchesAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dirs := map[int]int{}
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, MaxBits} {
		got, want := NewSet(New(n)), NewSet(New(n))
		for trial := 0; trial < 300; trial++ {
			v := randomVec(rng, n)
			d := randomMove(rng, v)
			switch trial % 4 {
			case 0:
				for i := range d {
					d[i] = int64(rng.Intn(3) - 1)
				}
			case 1:
				clear(d)
			}
			m := NewMove(d)
			wantI, wantDir, wantAdded := int32(0), 0, false
			y, ok := m.Add(v)
			if ok {
				wantDir = 1
			} else if y, ok = m.Sub(v); ok {
				wantDir = -1
			}
			if ok {
				wantI, wantAdded = want.Add(y)
			}
			if i, dir, added := got.Step(v, &m); i != wantI || dir != wantDir || added != wantAdded {
				t.Fatalf("n=%d Step(%v, %v) = %d,%d,%v; want %d,%d,%v", n, v, d, i, dir, added, wantI, wantDir, wantAdded)
			}
			dirs[wantDir]++
		}
		if !slices.Equal(got.States(), want.States()) {
			t.Fatalf("n=%d: Step and Add built different sets", n)
		}
	}
	if dirs[1] == 0 || dirs[-1] == 0 || dirs[0] == 0 {
		t.Fatalf("directions seen %v: the moves no longer exercise every outcome", dirs)
	}
}

func TestNewMoveRejectsNonTernary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMove accepted an entry outside {-1,0,1}")
		}
	}()
	NewMove([]int64{0, -2, 0})
}

func TestMoveLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-entry move applied to a 4-bit vector did not panic")
		}
	}()
	m := NewMove([]int64{1, 0, 0})
	m.Add(New(4))
}

// TestSignedMovesZeroAllocs gates the ±u walks (schedule dry run,
// closure BFS, subspace compile): a move allocates nothing, whether it is
// valid or annihilated.
func TestSignedMovesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randomVec(rng, 150)
	moves := make([]Move, 16)
	for i := range moves {
		moves[i] = NewMove(randomMove(rng, v))
	}
	var sink Vec
	allocs := testing.AllocsPerRun(100, func() {
		for i := range moves {
			if y, ok := moves[i].Add(v); ok {
				sink = y
			}
			if y, ok := moves[i].Sub(v); ok {
				sink = y
			}
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Move.Add/Sub allocate %v times per run; want 0", allocs)
	}
}

// TestNewMoveMasksMatchesNewMove checks the mask constructor against
// NewMove on random vectors at widths across the word boundaries, and
// that it rejects overlapping masks and bits past the length.
func TestNewMoveMasksMatchesNewMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 129, 192} {
		for trial := 0; trial < 20; trial++ {
			u := make([]int64, n)
			var plus, minus [words]uint64
			for i := range u {
				switch rng.Intn(3) {
				case 1:
					u[i] = 1
					plus[i/64] |= 1 << (i % 64)
				case 2:
					u[i] = -1
					minus[i/64] |= 1 << (i % 64)
				}
			}
			if got, want := NewMoveMasks(n, plus, minus), NewMove(u); got != want {
				t.Fatalf("n=%d: NewMoveMasks(%v) = %+v, want %+v", n, u, got, want)
			}
		}
	}
	for _, c := range []struct {
		n           int
		plus, minus [words]uint64
	}{
		{10, [words]uint64{1}, [words]uint64{1}},
		{10, [words]uint64{1 << 10}, [words]uint64{}},
		{64, [words]uint64{0, 1}, [words]uint64{}},
		{130, [words]uint64{}, [words]uint64{0, 0, 1 << 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMoveMasks(%d, %v, %v) did not panic", c.n, c.plus, c.minus)
				}
			}()
			NewMoveMasks(c.n, c.plus, c.minus)
		}()
	}
}
