package core

import (
	"fmt"

	"rasengan/internal/quantum"
)

// Transition is one transition Hamiltonian H^τ(u) of Definition 1,
// identified by its homogeneous vector u ∈ {-1,0,1}^n.
type Transition struct {
	U []int64
}

// NewTransition validates u and wraps it.
func NewTransition(u []int64) (Transition, error) {
	if !IsTernary(u) {
		return Transition{}, fmt.Errorf("core: transition vector must be nonzero ternary, got %v", u)
	}
	return Transition{U: u}, nil
}

// Support returns the indices of the qubits the Hamiltonian acts on
// (nonzero entries of u); its size is the k of the 34k cost model.
func (tr Transition) Support() []int {
	var s []int
	for i, v := range tr.U {
		if v != 0 {
			s = append(s, i)
		}
	}
	return s
}

// operatorBuilder receives the gates an operator emits. *quantum.Circuit
// builds them; *transpile.CostMeter prices their decomposition without
// building a circuit.
type operatorBuilder interface {
	X(q int)
	H(q int)
	CX(ctrl, tgt int)
	MCP(qubits []int, theta float64)
}

// OperatorCircuit emits the gate-level implementation of the transition
// operator τ(u, t) = exp(-i·H^τ(u)·t) over n qubits — the paper's
// symmetric structure (Figure 4):
//
//	ladder† · [ H_qt · MCP(S\{qt}, −t) · MCP(S, 2t) · H_qt ] · ladder
//
// where the CX/X ladder maps the two transition patterns p⁻ ↔ p⁺ onto the
// pair |1...1,0⟩ / |1...1,1⟩ of the support S, and the two
// multi-controlled phase gates realize a controlled exp(-i·t·X) on the
// distinguished qubit qt. States outside the two patterns acquire neither
// phase nor rotation, reproducing the annihilation behaviour of H^τ.
func (tr Transition) OperatorCircuit(n int, t float64) *quantum.Circuit {
	if len(tr.U) != n {
		panic(fmt.Sprintf("core: transition over %d vars emitted on %d qubits", len(tr.U), n))
	}
	c := quantum.NewCircuit(n)
	tr.emitOperator(c, t)
	return c
}

// emitOperator writes OperatorCircuit's gates into b. It allocates one
// support slice, whatever the support size.
func (tr Transition) emitOperator(b operatorBuilder, t float64) {
	k := NonZero(tr.U)
	if k == 0 {
		return
	}
	// full is the support S with its first qubit qt moved last, so rest =
	// S\{qt} is its prefix and the full-support MCP lists rest, then qt.
	full := make([]int, 0, k)
	for q, v := range tr.U {
		if v != 0 {
			full = append(full, q)
		}
	}
	qt := full[0]
	copy(full, full[1:])
	full[k-1] = qt
	rest := full[:k-1]

	// p⁺ is the pattern after "x + u": bit q is 1 where u_q = +1 and 0
	// where u_q = −1. After CX(qt→q), both patterns agree on q with value
	// p⁺_q ⊕ p⁺_qt; X gates lift those to 1.
	p := func(q int) bool { return tr.U[q] == 1 }
	ladder := func() {
		for _, q := range rest {
			b.CX(qt, q)
		}
		for _, q := range rest {
			if p(q) == p(qt) { // p⁺_q ⊕ p⁺_qt == 0
				b.X(q)
			}
		}
		// Normalize qt so that pattern p⁺ maps to qt=1.
		if !p(qt) {
			b.X(qt)
		}
	}
	unladder := func() {
		if !p(qt) {
			b.X(qt)
		}
		for i := len(rest) - 1; i >= 0; i-- {
			if q := rest[i]; p(q) == p(qt) {
				b.X(q)
			}
		}
		for i := len(rest) - 1; i >= 0; i-- {
			b.CX(qt, rest[i])
		}
	}

	ladder()
	b.H(qt)
	if len(rest) > 0 {
		b.MCP(rest, -t)
	}
	// A single-qubit "MCP" over {qt} alone is just a phase; combined with
	// the rest it is the full-support multi-controlled phase.
	b.MCP(full, 2*t)
	b.H(qt)
	unladder()

	// With an empty control set the phase pair implements diag(1, e^{2it})
	// instead of diag(e^{-it}, e^{it}); the difference is the global phase
	// e^{-it}, which is unobservable, so no compensation is emitted.
}

// CXCost34k is the paper's analytic cost model: a transition operator on
// a vector with k nonzero entries costs 34·k CX gates (Section 3.2).
func (tr Transition) CXCost34k() int { return 34 * NonZero(tr.U) }
