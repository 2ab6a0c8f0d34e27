package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rasengan/internal/bitvec"
)

// Sparse is a statevector stored as a map from basis bit vectors to
// amplitudes. Transition-Hamiltonian circuits permute and pair basis
// states, so a state seeded at one feasible solution never grows beyond
// the feasible span — the reason the paper can run 105-variable instances
// on DDSim, and the reason this representation is exact for Rasengan.
type Sparse struct {
	n    int
	amps map[bitvec.Vec]complex128

	// scratch is reused across ApplyTransition calls to snapshot the
	// support without allocating; it holds no state between calls.
	scratch []bitvec.Vec
}

// NewSparse returns the basis state |x⟩.
func NewSparse(x bitvec.Vec) *Sparse {
	return &Sparse{n: x.Len(), amps: map[bitvec.Vec]complex128{x: 1}}
}

// NewSparseEmpty returns a null state over n qubits (no amplitudes); used
// as an accumulator.
func NewSparseEmpty(n int) *Sparse {
	return &Sparse{n: n, amps: map[bitvec.Vec]complex128{}}
}

// NumQubits returns the register width.
func (s *Sparse) NumQubits() int { return s.n }

// Size returns the number of basis states with nonzero stored amplitude.
func (s *Sparse) Size() int { return len(s.amps) }

// Amplitude returns ⟨x|ψ⟩.
func (s *Sparse) Amplitude(x bitvec.Vec) complex128 { return s.amps[x] }

// SetAmplitude assigns an amplitude directly (used by tests and by the
// segmented-execution bookkeeping).
func (s *Sparse) SetAmplitude(x bitvec.Vec, a complex128) {
	if x.Len() != s.n {
		panic(fmt.Sprintf("quantum: amplitude for %d-bit state in %d-qubit register", x.Len(), s.n))
	}
	if a == 0 {
		delete(s.amps, x)
	} else {
		s.amps[x] = a
	}
}

// Norm returns ⟨ψ|ψ⟩.
func (s *Sparse) Norm() float64 {
	t := 0.0
	for _, a := range s.amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales to unit norm, reporting whether the state was
// non-null.
func (s *Sparse) Normalize() bool {
	nrm := math.Sqrt(s.Norm())
	if nrm == 0 {
		return false
	}
	inv := complex(1/nrm, 0)
	for k := range s.amps {
		s.amps[k] *= inv
	}
	return true
}

// prune drops negligible amplitudes that would otherwise accumulate as
// floating-point dust across long transition chains.
const sparseEps = 1e-14

func (s *Sparse) prune() {
	for k, a := range s.amps {
		if real(a)*real(a)+imag(a)*imag(a) < sparseEps*sparseEps {
			delete(s.amps, k)
		}
	}
}

// ApplyX flips qubit q on every basis state.
func (s *Sparse) ApplyX(q int) {
	next := make(map[bitvec.Vec]complex128, len(s.amps))
	for k, a := range s.amps {
		k.Flip(q)
		next[k] = a
	}
	s.amps = next
}

// ApplyZ applies a sign flip to every basis state with qubit q set.
func (s *Sparse) ApplyZ(q int) {
	for k, a := range s.amps {
		if k.Bit(q) {
			s.amps[k] = -a
		}
	}
}

// ApplyY applies Pauli-Y to qubit q: |0⟩→i|1⟩, |1⟩→−i|0⟩.
func (s *Sparse) ApplyY(q int) {
	next := make(map[bitvec.Vec]complex128, len(s.amps))
	for k, a := range s.amps {
		was1 := k.Bit(q)
		k.Flip(q)
		if was1 {
			next[k] = a * complex(0, -1)
		} else {
			next[k] = a * complex(0, 1)
		}
	}
	s.amps = next
}

// ApplyPhase multiplies amplitudes of states with qubit q set by e^{iθ}.
func (s *Sparse) ApplyPhase(q int, theta float64) {
	e := complex(math.Cos(theta), math.Sin(theta))
	for k, a := range s.amps {
		if k.Bit(q) {
			s.amps[k] = a * e
		}
	}
}

// ApplyDiagonalPhaseFunc multiplies each basis amplitude by
// e^{-i·gamma·energy(x)} — the QAOA phase separator for a diagonal
// objective Hamiltonian, evaluated lazily so it works on registers far too
// wide for an energy table.
func (s *Sparse) ApplyDiagonalPhaseFunc(energy func(bitvec.Vec) float64, gamma float64) {
	for k, a := range s.amps {
		th := -gamma * energy(k)
		s.amps[k] = a * complex(math.Cos(th), math.Sin(th))
	}
}

// ApplyTransition applies exp(-i·H^τ(u)·t) exactly (Equation 6): states
// x with a binary-valid partner y = x+u mix as a'_x = cos(t)·a_x −
// i·sin(t)·a_y, a'_y = cos(t)·a_y − i·sin(t)·a_x; states with no valid
// partner in either direction are fixed points. The state support grows
// by at most a factor of two per application and stays inside the
// feasible span when seeded there.
func (s *Sparse) ApplyTransition(u []int64, t float64) {
	if len(u) != s.n {
		panic(fmt.Sprintf("quantum: transition vector of %d entries on %d qubits", len(u), s.n))
	}
	allZero := true
	for _, v := range u {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// H^τ(0) would be 2·I on every state; the paper's transition
		// Hamiltonians always come from nonzero basis vectors, so treat the
		// degenerate case as a no-op.
		return
	}
	ct := complex(math.Cos(t), 0)
	st := complex(0, math.Sin(t))
	// Pairs under a fixed u are disjoint: a state with 0s at every +1
	// position cannot also have 1s there, so Move.Add and Move.Sub can
	// never both succeed. Each pair is processed once, from its lower
	// member when that member has stored amplitude and from the upper
	// member otherwise — no visited-set allocation needed. Amplitudes are
	// written directly (zeros kept, pruned below) so the partner-presence
	// check stays valid throughout the pass.
	s.scratch = s.scratch[:0]
	for k := range s.amps {
		s.scratch = append(s.scratch, k)
	}
	m := bitvec.NewMove(u)
	for _, x := range s.scratch {
		if y, ok := m.Add(x); ok {
			a, b := s.amps[x], s.amps[y]
			s.amps[x] = ct*a - st*b
			s.amps[y] = ct*b - st*a
		} else if y, ok := m.Sub(x); ok {
			if _, seen := s.amps[y]; !seen {
				b := s.amps[x]
				s.amps[y] = -st * b
				s.amps[x] = ct * b
			}
		}
	}
	s.prune()
}

// Probabilities returns the measurement distribution as a map.
func (s *Sparse) Probabilities() map[bitvec.Vec]float64 {
	out := make(map[bitvec.Vec]float64, len(s.amps))
	for k, a := range s.amps {
		out[k] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// Support returns the basis states with nonzero amplitude in a
// deterministic order.
func (s *Sparse) Support() []bitvec.Vec {
	keys := make([]bitvec.Vec, 0, len(s.amps))
	for k := range s.amps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys
}

// Sample draws shots measurements in the computational basis. The state
// need not be normalized; probabilities are taken relative to the norm.
// All uniform draws are taken up front and sorted so the support CDF is
// consumed in one merge pass rather than a binary search per shot; counts
// are identical to the per-shot search (same draws, same cell boundaries).
func (s *Sparse) Sample(rng *rand.Rand, shots int) map[bitvec.Vec]int {
	keys := s.Support()
	cdf := make([]float64, len(keys))
	acc := 0.0
	for i, k := range keys {
		a := s.amps[k]
		acc += real(a)*real(a) + imag(a)*imag(a)
		cdf[i] = acc
	}
	out := make(map[bitvec.Vec]int)
	if len(keys) == 0 || shots <= 0 {
		return out
	}
	draws := make([]float64, shots)
	for i := range draws {
		draws[i] = rng.Float64() * acc
	}
	sort.Float64s(draws)
	idx, pending := 0, 0
	for _, r := range draws {
		for idx < len(keys)-1 && cdf[idx] < r {
			if pending > 0 {
				out[keys[idx]] += pending
				pending = 0
			}
			idx++
		}
		pending++
	}
	out[keys[idx]] += pending
	return out
}

// Filter keeps only basis states accepted by keep and returns the retained
// probability mass (before renormalization). It implements the
// purification primitive: after a noisy segment, infeasible states are
// projected out.
func (s *Sparse) Filter(keep func(bitvec.Vec) bool) float64 {
	kept := 0.0
	for k, a := range s.amps {
		if keep(k) {
			kept += real(a)*real(a) + imag(a)*imag(a)
		} else {
			delete(s.amps, k)
		}
	}
	return kept
}

// Clone deep-copies the state.
func (s *Sparse) Clone() *Sparse {
	c := &Sparse{n: s.n, amps: make(map[bitvec.Vec]complex128, len(s.amps))}
	for k, v := range s.amps {
		c.amps[k] = v
	}
	return c
}
