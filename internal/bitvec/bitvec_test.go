package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, MaxBits} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.OnesCount() != 0 {
			t.Errorf("New(%d) not all zeros", n)
		}
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, MaxBits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSetBitFlip(t *testing.T) {
	v := New(100)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(99, true)
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Errorf("OnesCount = %d, want 4", v.OnesCount())
	}
	v.Flip(63)
	if v.Bit(63) {
		t.Error("Flip did not clear bit 63")
	}
	v.Set(0, false)
	if v.Bit(0) {
		t.Error("Set false did not clear bit 0")
	}
}

func TestFromBitsRoundTrip(t *testing.T) {
	in := []int{1, 0, 1, 1, 0, 0, 1}
	v := FromBits(in)
	out := v.Ints()
	if len(out) != len(in) {
		t.Fatalf("len mismatch")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("bit %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	s := "1011001"
	v, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != s {
		t.Errorf("round trip: got %q want %q", v.String(), s)
	}
	if _, err := FromString("10x"); err == nil {
		t.Error("FromString accepted invalid rune")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, u := range []uint64{0, 1, 0b1011, 1 << 40, ^uint64(0) >> 2} {
		v := FromUint64(u, 64)
		if v.Uint64() != u {
			t.Errorf("round trip %x: got %x", u, v.Uint64())
		}
	}
	v := FromUint64(0xFF, 4)
	if v.Uint64() != 0xF {
		t.Errorf("FromUint64 should mask to n bits, got %x", v.Uint64())
	}
}

func TestMoveAddSub(t *testing.T) {
	x := FromBits([]int{0, 0, 0, 1, 0})
	u := NewMove([]int64{-1, 1, 0, 0, 0})
	if _, ok := u.Add(x); ok {
		t.Error("x+u should be invalid (x0-1 = -1)")
	}
	// x - u2 with u2 = [-1,0,-1,1,0]: x2 = [1,0,1,0,0] (paper example).
	u2 := NewMove([]int64{-1, 0, -1, 1, 0})
	got, ok := u2.Sub(x)
	if !ok {
		t.Fatal("x-u2 should be valid")
	}
	want := FromBits([]int{1, 0, 1, 0, 0})
	if !got.Equal(want) {
		t.Errorf("x-u2 = %v, want %v", got, want)
	}
	// x + u3 with u3 = [1,0,1,0,1]: x3 = [1,0,1,1,1] (paper example).
	u3 := NewMove([]int64{1, 0, 1, 0, 1})
	got, ok = u3.Add(x)
	if !ok {
		t.Fatal("x+u3 should be valid")
	}
	want = FromBits([]int{1, 0, 1, 1, 1})
	if !got.Equal(want) {
		t.Errorf("x+u3 = %v, want %v", got, want)
	}
}

func TestMoveInverse(t *testing.T) {
	// Property: if x+u is valid then (x+u)-u == x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		d := make([]int64, n)
		for i := range d {
			d[i] = int64(rng.Intn(3) - 1)
		}
		u := NewMove(d)
		w, ok := u.Add(v)
		if !ok {
			return true
		}
		back, ok2 := u.Sub(w)
		return ok2 && back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorAndHamming(t *testing.T) {
	a := MustFromString("1100")
	b := MustFromString("1010")
	if got := a.Xor(b).String(); got != "0110" {
		t.Errorf("Xor = %s", got)
	}
	if got := a.And(b).String(); got != "1000" {
		t.Errorf("And = %s", got)
	}
	if d := a.HammingDistance(b); d != 2 {
		t.Errorf("HammingDistance = %d, want 2", d)
	}
}

func TestCompare(t *testing.T) {
	a := MustFromString("010")
	b := MustFromString("011")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
	short := MustFromString("01")
	if short.Compare(a) != -1 {
		t.Error("shorter vector should sort first")
	}
}

func TestMapKeySemantics(t *testing.T) {
	m := map[Vec]int{}
	a := MustFromString("0101")
	b := MustFromString("0101")
	m[a] = 1
	if m[b] != 1 {
		t.Error("equal vectors should be the same map key")
	}
	c := MustFromString("1101")
	if _, ok := m[c]; ok {
		t.Error("distinct vector found in map")
	}
}

func TestWithBit(t *testing.T) {
	a := New(4)
	b := a.WithBit(2, true)
	if a.Bit(2) {
		t.Error("WithBit mutated receiver")
	}
	if !b.Bit(2) {
		t.Error("WithBit result missing bit")
	}
}

func TestOnesCountProperty(t *testing.T) {
	f := func(u uint64) bool {
		v := FromUint64(u, 64)
		n := 0
		for i := 0; i < 64; i++ {
			if v.Bit(i) {
				n++
			}
		}
		return n == v.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexPanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}
