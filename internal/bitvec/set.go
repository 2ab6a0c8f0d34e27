package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
)

// Set is an insertion-ordered set of vectors, the state table of every
// feasible-graph walk (the basis closures, the schedule dry run, the
// compiled subspace): its states in the order they were added, which a
// walk visits as a slice, and an open-addressed table of their indices
// for membership, kept at most half full and probed linearly from a
// multiplicative hash of the three words. The index of a state is its
// position in States until Sort renumbers them.
type Set struct {
	states []Vec
	slots  []int32 // index+1 into states; 0 marks an empty slot
	shift  uint    // 64 − log2(len(slots))
}

// minSetSlots is the table size of a new set: room for 32 states.
const minSetSlots = 64

// NewSet returns a set holding only seed, with room for as many states
// as its first table holds.
func NewSet(seed Vec) *Set {
	s := &Set{states: make([]Vec, 0, minSetSlots/2), slots: make([]int32, minSetSlots), shift: 64 - 6}
	s.Add(seed)
	return s
}

// Len returns the number of states held.
func (s *Set) Len() int { return len(s.states) }

// States returns the states by index. The slice aliases the set: after an
// Add or a Step it still holds the states it held, but not those added
// since, and Sort reorders it.
func (s *Set) States() []Vec { return s.states }

// find returns the slot holding y, or the empty slot where y belongs.
func (s *Set) find(y Vec) (slot int, held bool) {
	h := (y.w[0] ^ bits.RotateLeft64(y.w[1], 21) ^ bits.RotateLeft64(y.w[2], 42)) * 0x9E3779B97F4A7C15
	mask := len(s.slots) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		k := s.slots[i]
		if k == 0 {
			return i, false
		}
		if s.states[k-1] == y {
			return i, true
		}
	}
}

// Index returns the index of y, if the set holds it.
func (s *Set) Index(y Vec) (int32, bool) {
	i, held := s.find(y)
	if !held {
		return 0, false
	}
	return s.slots[i] - 1, true
}

// Add appends y unless the set holds it. It returns the index of y and
// whether it was added.
func (s *Set) Add(y Vec) (int32, bool) {
	i, held := s.find(y)
	if held {
		return s.slots[i] - 1, false
	}
	return s.insert(i, y), true
}

// insert appends y, which belongs in the empty slot i, and returns its
// index.
func (s *Set) insert(i int, y Vec) int32 {
	s.states = append(s.states, y)
	k := int32(len(s.states))
	s.slots[i] = k
	if 2*len(s.states) > len(s.slots) {
		s.slots = make([]int32, 2*len(s.slots))
		s.shift--
		for k, x := range s.states {
			j, _ := s.find(x)
			s.slots[j] = int32(k + 1)
		}
	}
	return k - 1
}

// Sort renumbers the states into Compare order and rebuilds the table
// for the new indices. The states are distinct, so the order has a single
// possible result.
func (s *Set) Sort() {
	slices.SortFunc(s.states, Vec.Compare)
	clear(s.slots)
	for k, x := range s.states {
		i, _ := s.find(x)
		s.slots[i] = int32(k + 1)
	}
}

// Step adds to s the state x moves to along u: x+u with dir +1 when it is
// binary, else x−u with dir −1 when that is. It returns the state's index,
// the direction, and whether it was added; dir is 0 and nothing is added
// when neither is. It tests both directions in one pass over the words,
// since on the support of u, x+u exists iff x equals the −1 mask and x−u
// iff x equals the +1 mask. The walks call it for every state and move,
// so it builds the partner and probes the table in one frame: a partner
// returned to the caller would travel through memory.
func (s *Set) Step(x Vec, u *Move) (i int32, dir int, added bool) {
	// The words are spelled out; the conversion below fails to compile
	// unless there are three.
	_ = [3]uint64(x.w)
	if x.n != u.n {
		panic(fmt.Sprintf("bitvec: move length mismatch %d != %d", u.n, x.n))
	}
	s0, s1, s2 := u.plus[0]|u.minus[0], u.plus[1]|u.minus[1], u.plus[2]|u.minus[2]
	o0, o1, o2 := x.w[0]&s0, x.w[1]&s1, x.w[2]&s2
	switch {
	case (o0^u.minus[0])|(o1^u.minus[1])|(o2^u.minus[2]) == 0:
		dir = 1
	case (o0^u.plus[0])|(o1^u.plus[1])|(o2^u.plus[2]) == 0:
		dir = -1
	default:
		return 0, 0, false
	}
	y := Vec{w: [words]uint64{x.w[0] ^ s0, x.w[1] ^ s1, x.w[2] ^ s2}, n: x.n}
	slot, held := s.find(y)
	if held {
		return s.slots[slot] - 1, dir, false
	}
	return s.insert(slot, y), dir, true
}
