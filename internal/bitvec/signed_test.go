package bitvec

import (
	"math/rand"
	"testing"
)

// addSignedReference is the per-bit definition of AddSigned: v + d over
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
// AddSigned step from v with probability 7/8, so AddSigned and SubSigned
// both meet valid and annihilated moves.
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

func TestSignedMovesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, MaxBits} {
		for trial := 0; trial < 300; trial++ {
			v := randomVec(rng, n)
			d := randomMove(rng, v)
			neg := make([]int64, n)
			for i := range d {
				neg[i] = -d[i]
			}
			gotA, okA := v.AddSigned(d)
			wantA, wantOKA := addSignedReference(v, d)
			gotS, okS := v.SubSigned(d)
			wantS, wantOKS := addSignedReference(v, neg)
			if okA != wantOKA || gotA != wantA {
				t.Fatalf("n=%d AddSigned(%v, %v) = %v,%v; want %v,%v", n, v, d, gotA, okA, wantA, wantOKA)
			}
			if okS != wantOKS || gotS != wantS {
				t.Fatalf("n=%d SubSigned(%v, %v) = %v,%v; want %v,%v", n, v, d, gotS, okS, wantS, wantOKS)
			}
		}
	}
}

func TestSubSignedRejectsNonTernary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SubSigned accepted an entry outside {-1,0,1}")
		}
	}()
	New(3).SubSigned([]int64{0, -2, 0})
}

// TestSignedMovesZeroAllocs gates the ±u walks (schedule dry run,
// closure BFS, subspace compile): a move allocates nothing, whether it is
// valid or annihilated.
func TestSignedMovesZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randomVec(rng, 150)
	moves := make([][]int64, 16)
	for i := range moves {
		moves[i] = randomMove(rng, v)
	}
	var sink Vec
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range moves {
			if y, ok := v.AddSigned(d); ok {
				sink = y
			}
			if y, ok := v.SubSigned(d); ok {
				sink = y
			}
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("AddSigned/SubSigned allocate %v times per run; want 0", allocs)
	}
}
