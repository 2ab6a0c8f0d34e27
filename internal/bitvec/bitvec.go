// Package bitvec provides fixed-length binary vectors used to represent
// candidate solutions of constrained binary optimization problems.
//
// A Vec holds n bits packed into 64-bit words. Vectors are value types with
// a small fixed backing array so they can be used as map keys, which the
// sparse quantum-state simulator relies on: a quantum basis state |x⟩ is
// identified with the Vec x.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxBits is the largest vector length supported. Three 64-bit words cover
// the 105-variable facility-location instances of the scalability study with
// room to spare.
const MaxBits = 192

const words = MaxBits / 64

// Vec is a fixed-capacity bit vector of length N. Bit i corresponds to
// decision variable x_i. The zero value is the all-zeros vector of length 0;
// use New to create a vector with a definite length.
type Vec struct {
	w [words]uint64
	n int
}

// New returns an all-zeros vector of length n. It panics if n is negative or
// exceeds MaxBits, which indicates a programming error in the caller.
func New(n int) Vec {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("bitvec: length %d out of range [0,%d]", n, MaxBits))
	}
	return Vec{n: n}
}

// FromBits builds a vector from a slice of 0/1 ints, with bits[i] assigned
// to variable i. Any nonzero entry is treated as 1.
func FromBits(bits []int) Vec {
	v := New(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// FromString parses a string of '0' and '1' runes, with position i assigned
// to variable i (so "101" has x0=1, x1=0, x2=1). Unlike New, an oversized
// input is an error rather than a panic: the string typically comes from
// external data (a problem file's "initial_solution" field), not from code.
func FromString(s string) (Vec, error) {
	if len(s) > MaxBits {
		return Vec{}, fmt.Errorf("bitvec: string length %d exceeds capacity %d", len(s), MaxBits)
	}
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("bitvec: invalid rune %q at position %d", r, i)
		}
	}
	return v, nil
}

// MustFromString is FromString but panics on malformed input. It is intended
// for tests and literals.
func MustFromString(s string) Vec {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Bit reports whether bit i is set.
func (v Vec) Bit(i int) bool {
	v.check(i)
	return v.w[i/64]>>(uint(i)%64)&1 == 1
}

// BitInt returns bit i as an int (0 or 1).
func (v Vec) BitInt(i int) int {
	if v.Bit(i) {
		return 1
	}
	return 0
}

// Set sets bit i to b and returns nothing; Vec has value semantics so Set
// must be called on an addressable Vec.
func (v *Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.w[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.w[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Flip toggles bit i.
func (v *Vec) Flip(i int) {
	v.check(i)
	v.w[i/64] ^= 1 << (uint(i) % 64)
}

// WithBit returns a copy of v with bit i set to b.
func (v Vec) WithBit(i int, b bool) Vec {
	v.Set(i, b)
	return v
}

// OnesCount returns the number of set bits (the Hamming weight).
func (v Vec) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether v and o have the same length and bits.
func (v Vec) Equal(o Vec) bool { return v == o }

// Xor returns the bitwise XOR of v and o. The lengths must match.
func (v Vec) Xor(o Vec) Vec {
	v.checkLen(o)
	for i := range v.w {
		v.w[i] ^= o.w[i]
	}
	return v
}

// And returns the bitwise AND of v and o. The lengths must match.
func (v Vec) And(o Vec) Vec {
	v.checkLen(o)
	for i := range v.w {
		v.w[i] &= o.w[i]
	}
	return v
}

// HammingDistance returns the number of positions where v and o differ.
func (v Vec) HammingDistance(o Vec) int {
	v.checkLen(o)
	c := 0
	for i := range v.w {
		c += bits.OnesCount64(v.w[i] ^ o.w[i])
	}
	return c
}

// Word returns bits 64k..64k+63 of v as one word, bit i of the word being
// variable 64k+i, so a caller can walk the set bits without unpacking
// them. Words at or past Len are zero; k must lie in [0, MaxBits/64).
func (v Vec) Word(k int) uint64 { return v.w[k] }

// Ints returns the vector as a slice of 0/1 ints.
func (v Vec) Ints() []int {
	out := make([]int, v.n)
	for i := 0; i < v.n; i++ {
		out[i] = v.BitInt(i)
	}
	return out
}

// String renders the vector as a string of '0'/'1' with position i holding
// variable i, matching FromString.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Uint64 returns the low 64 bits of the vector. It panics when the vector is
// longer than 64 bits, where a single word cannot represent the state; it is
// used by the dense simulator, which is limited to small registers anyway.
func (v Vec) Uint64() uint64 {
	if v.n > 64 {
		panic("bitvec: Uint64 on vector longer than 64 bits")
	}
	return v.w[0]
}

// FromUint64 builds a length-n vector from the low n bits of u.
func FromUint64(u uint64, n int) Vec {
	if n > 64 {
		panic("bitvec: FromUint64 with n > 64")
	}
	v := New(n)
	if n < 64 {
		u &= (1 << uint(n)) - 1
	}
	v.w[0] = u
	return v
}

// Move is a transition vector u ∈ {-1,0,+1}^n packed for the ±u moves of
// the feasible-graph walks (closure BFS, schedule dry run, subspace
// compile): a +1 word mask and a −1 word mask, built once per vector. On
// the support of u, x+u exists iff x is 0 wherever u is +1 and 1 wherever
// u is −1, and x−u exists iff the reverse holds; either move then flips
// exactly the support. A move is a few word operations and allocates
// nothing.
type Move struct {
	plus, minus [words]uint64
	n           int
}

// NewMove packs u. It panics when u is longer than MaxBits or has an entry
// outside {-1,0,1}, which indicates a programming error in the caller.
func NewMove(u []int64) Move {
	if len(u) > MaxBits {
		panic(fmt.Sprintf("bitvec: move length %d exceeds capacity %d", len(u), MaxBits))
	}
	m := Move{n: len(u)}
	for i, d := range u {
		bit := uint64(1) << (uint(i) % 64)
		switch d {
		case 0:
		case 1:
			m.plus[i/64] |= bit
		case -1:
			m.minus[i/64] |= bit
		default:
			panic(fmt.Sprintf("bitvec: move entry %d at %d not in {-1,0,1}", d, i))
		}
	}
	return m
}

// NewMoveMasks returns the move of the length-n vector with +1 entries
// at the set bits of plus and −1 entries at those of minus, bit i%64 of
// word i/64 standing for entry i. It panics when the masks overlap or set
// a bit at or past n, which indicates a programming error in the caller.
func NewMoveMasks(n int, plus, minus [words]uint64) Move {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("bitvec: move length %d out of range [0,%d]", n, MaxBits))
	}
	for i := range plus {
		valid := ^uint64(0)
		if k := n - 64*i; k < 64 {
			valid = 1<<uint(max(k, 0)) - 1
		}
		if plus[i]&minus[i] != 0 || (plus[i]|minus[i])&^valid != 0 {
			panic(fmt.Sprintf("bitvec: move masks invalid for length %d", n))
		}
	}
	return Move{plus: plus, minus: minus, n: n}
}

// Add returns x + u over the integers. The second result is false when
// some component leaves {0,1}, i.e. the move is not a valid binary
// transition (the case the transition Hamiltonian annihilates).
func (m *Move) Add(x Vec) (Vec, bool) { return m.apply(x, &m.minus) }

// Sub returns x − u under the same rules as Add.
func (m *Move) Sub(x Vec) (Vec, bool) { return m.apply(x, &m.plus) }

// apply flips the support of u in x when x restricted to that support
// equals ones: the −1 mask for x+u, the +1 mask for x−u.
func (m *Move) apply(x Vec, ones *[words]uint64) (Vec, bool) {
	if x.n != m.n {
		panic(fmt.Sprintf("bitvec: move length mismatch %d != %d", m.n, x.n))
	}
	for i := range x.w {
		if x.w[i]&(m.plus[i]|m.minus[i]) != ones[i] {
			return Vec{}, false
		}
	}
	for i := range x.w {
		x.w[i] ^= m.plus[i] | m.minus[i]
	}
	return x, true
}

// NewMoves packs every vector of us.
func NewMoves(us [][]int64) []Move {
	out := make([]Move, len(us))
	for i, u := range us {
		out[i] = NewMove(u)
	}
	return out
}

// Compare orders vectors first by length then lexicographically by bit
// index (bit 0 most significant for ordering purposes). It returns -1, 0,
// or +1 and gives experiments a deterministic iteration order.
//
// The lowest differing bit decides, and it is the lowest set bit of the
// first nonzero XOR word: bits at or above the length are always zero,
// so they never differ.
func (v Vec) Compare(o Vec) int {
	if v.n != o.n {
		if v.n < o.n {
			return -1
		}
		return 1
	}
	for i := range v.w {
		if d := v.w[i] ^ o.w[i]; d != 0 {
			if o.w[i]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v Vec) checkLen(o Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}
