// Package quantum provides the gate-model circuit IR and the two
// statevector simulators the reproduction is built on: a dense simulator
// for the superposition-based baselines (HEA, P-QAOA) and a sparse
// feasible-subspace simulator for transition-Hamiltonian circuits, which
// map basis states to basis states and therefore never populate more than
// the feasible span (the stand-in for the paper's DDSim backend).
//
// It also implements the NISQ noise channels of the evaluation section —
// depolarizing (Pauli) noise, amplitude damping, and phase damping — via
// Monte-Carlo quantum-trajectory unraveling.
package quantum

import "fmt"

// GateKind enumerates the gate set used across the repository. It covers
// the native-ish set of superconducting devices (1-qubit rotations + CX)
// plus the composite gates the algorithms are expressed in before
// transpilation (multi-controlled phase, Toffoli).
type GateKind int

const (
	GateX GateKind = iota
	GateH
	GateRX
	GateRY
	GateRZ
	GateP  // phase gate diag(1, e^{iθ})
	GateSX // sqrt-X, part of the IBM native set
	GateCX
	GateCP   // controlled phase
	GateCCX  // Toffoli
	GateMCP  // multi-controlled phase: phase when all of Qubits are 1
	GateSWAP // inserted by routing
)

// String implements fmt.Stringer.
func (k GateKind) String() string {
	switch k {
	case GateX:
		return "x"
	case GateH:
		return "h"
	case GateRX:
		return "rx"
	case GateRY:
		return "ry"
	case GateRZ:
		return "rz"
	case GateP:
		return "p"
	case GateSX:
		return "sx"
	case GateCX:
		return "cx"
	case GateCP:
		return "cp"
	case GateCCX:
		return "ccx"
	case GateMCP:
		return "mcp"
	case GateSWAP:
		return "swap"
	default:
		return fmt.Sprintf("gate(%d)", int(k))
	}
}

// Gate is one operation on specific qubits. For controlled gates the
// target is the last entry of Qubits; for MCP the phase is symmetric so
// the distinction is cosmetic.
type Gate struct {
	Kind   GateKind
	Qubits []int
	Theta  float64 // rotation angle / phase where applicable
}

// NumQubitsTouched returns how many qubits the gate acts on.
func (g Gate) NumQubitsTouched() int { return len(g.Qubits) }

// IsTwoQubitOrMore reports whether the gate entangles (≥2 qubits).
func (g Gate) IsTwoQubitOrMore() bool { return len(g.Qubits) >= 2 }

// Validate checks arity against the gate kind.
func (g Gate) Validate() error {
	want := -1
	switch g.Kind {
	case GateX, GateH, GateRX, GateRY, GateRZ, GateP, GateSX:
		want = 1
	case GateCX, GateCP, GateSWAP:
		want = 2
	case GateCCX:
		want = 3
	case GateMCP:
		if len(g.Qubits) < 1 {
			return fmt.Errorf("quantum: mcp needs ≥1 qubit, got %d", len(g.Qubits))
		}
	}
	if want != -1 && len(g.Qubits) != want {
		return fmt.Errorf("quantum: %v needs %d qubits, got %d", g.Kind, want, len(g.Qubits))
	}
	// Gates touch a handful of qubits, so a scan of the earlier ones finds
	// a repeat without allocating.
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("quantum: %v has negative qubit %d", g.Kind, q)
		}
		for _, p := range g.Qubits[:i] {
			if p == q {
				return fmt.Errorf("quantum: %v repeats qubit %d", g.Kind, q)
			}
		}
	}
	return nil
}
