// Package transpile lowers algorithm-level circuits to device-level ones:
// it decomposes composite gates (Toffoli, multi-controlled phase) into the
// CX + single-qubit native set, routes two-qubit gates onto a device
// coupling map by SWAP insertion, and schedules circuits against gate
// durations to produce the latency numbers of the evaluation.
package transpile

import (
	"fmt"
	"math"
	"slices"

	"rasengan/internal/quantum"
)

// Decompose lowers CCX, CP, MCP, and SWAP gates into {1q, CX}. The result
// may be wider than the input: MCP gates with three or more qubits borrow
// clean ancilla qubits above the original register (a Toffoli V-chain),
// giving the linear-in-k CX cost the paper's Section 3.2 relies on
// (compare the 34k model of [20]; the V-chain costs 12k±const here).
func Decompose(c *quantum.Circuit) *quantum.Circuit {
	// First pass: how many ancillas does the widest MCP need?
	maxAnc := 0
	for _, g := range c.Gates {
		if g.Kind == quantum.GateMCP && len(g.Qubits) >= 3 {
			if a := len(g.Qubits) - 2; a > maxAnc {
				maxAnc = a
			}
		}
	}
	out := quantum.NewCircuit(c.NumQubits + maxAnc)
	for _, g := range c.Gates {
		switch g.Kind {
		case quantum.GateCCX:
			emitCCX(out, g.Qubits[0], g.Qubits[1], g.Qubits[2])
		case quantum.GateCP:
			emitCP(out, g.Qubits[0], g.Qubits[1], g.Theta)
		case quantum.GateSWAP:
			out.CX(g.Qubits[0], g.Qubits[1])
			out.CX(g.Qubits[1], g.Qubits[0])
			out.CX(g.Qubits[0], g.Qubits[1])
		case quantum.GateMCP:
			emitMCP(out, g.Qubits, g.Theta, c.NumQubits)
		default:
			out.Append(g)
		}
	}
	return out
}

// nativeSink receives the native gates the decompositions below write.
// *quantum.Circuit collects them; *CostMeter prices them without keeping
// any, so the decomposition is written once for both.
type nativeSink interface {
	H(q int)
	RZ(q int, theta float64)
	P(q int, theta float64)
	CX(ctrl, tgt int)
}

// emitCCX writes the textbook 6-CX Toffoli decomposition.
func emitCCX(out nativeSink, a, b, t int) {
	pi4 := math.Pi / 4
	out.H(t)
	out.CX(b, t)
	out.RZ(t, -pi4)
	out.CX(a, t)
	out.RZ(t, pi4)
	out.CX(b, t)
	out.RZ(t, -pi4)
	out.CX(a, t)
	out.RZ(b, pi4)
	out.RZ(t, pi4)
	out.H(t)
	out.CX(a, b)
	out.RZ(a, pi4)
	out.RZ(b, -pi4)
	out.CX(a, b)
}

// emitCP writes the 2-CX controlled-phase decomposition.
func emitCP(out nativeSink, c, t int, theta float64) {
	out.P(c, theta/2)
	out.P(t, theta/2)
	out.CX(c, t)
	out.P(t, -theta/2)
	out.CX(c, t)
}

// emitMCP lowers a multi-controlled phase over qubits (all of which must
// be 1 for the phase to apply). For one qubit it is a P gate, for two a
// CP; for k ≥ 3 it computes the AND of the first k−1 qubits into a
// V-chain of ancillas starting at ancBase, applies a CP from the last
// ancilla to the final qubit, and uncomputes.
func emitMCP(out nativeSink, qubits []int, theta float64, ancBase int) {
	switch len(qubits) {
	case 0:
		return
	case 1:
		out.P(qubits[0], theta)
		return
	case 2:
		emitCP(out, qubits[0], qubits[1], theta)
		return
	}
	controls := qubits[:len(qubits)-1]
	target := qubits[len(qubits)-1]
	anc := ancBase
	// Compute chain: anc0 = c0∧c1, anc_{i} = anc_{i-1}∧c_{i+1}.
	emitCCX(out, controls[0], controls[1], anc)
	for i := 2; i < len(controls); i++ {
		emitCCX(out, anc+i-2, controls[i], anc+i-1)
	}
	top := anc + len(controls) - 2
	emitCP(out, top, target, theta)
	// Uncompute in reverse.
	for i := len(controls) - 1; i >= 2; i-- {
		emitCCX(out, anc+i-2, controls[i], anc+i-1)
	}
	emitCCX(out, controls[0], controls[1], anc)
}

// Cost is what a CostMeter measured: the figures CountTwoQubit,
// CountKind(GateCX), Depth and CircuitDurationNS report on the
// decomposed circuit. Every two-qubit native gate is a CX, so OneQ + CX
// is the gate count.
type Cost struct {
	OneQ, CX   int
	Depth      int
	DurationNS float64
}

// CostMeter prices a circuit over X, H, CX and MCP gates as Decompose
// would lower it, without building either circuit. Gates arrive through
// the same methods *quantum.Circuit offers; MCP is lowered by the same
// emitMCP, with ancillas from the register width up. Per qubit the meter
// keeps the ASAP layer of Circuit.Depth and the ASAP finish time of
// CircuitDurationNS, updated in the same order, so every figure —
// the duration's float included — matches bit for bit.
type CostMeter struct {
	n     int
	d     GateDurations
	cost  Cost
	layer []int     // per qubit: depth of its last gate
	avail []float64 // per qubit: finish time of its last gate
}

// NewCostMeter returns a meter for circuits over n qubits, timed by d.
func NewCostMeter(n int, d GateDurations) *CostMeter {
	return &CostMeter{n: n, d: d, layer: make([]int, n), avail: make([]float64, n)}
}

// Reset clears the meter for the next circuit, keeping its buffers.
func (m *CostMeter) Reset() {
	m.cost = Cost{}
	m.layer = m.layer[:m.n]
	m.avail = m.avail[:m.n]
	clear(m.layer)
	clear(m.avail)
}

// Cost returns the figures of every gate emitted since the last Reset.
func (m *CostMeter) Cost() Cost { return m.cost }

// X, H, RZ and P price one single-qubit gate each; RZ and P are virtual
// Z rotations and take no time, as in CircuitDurationNS.
func (m *CostMeter) X(q int)             { m.one(q, m.d.OneQubitNS) }
func (m *CostMeter) H(q int)             { m.one(q, m.d.OneQubitNS) }
func (m *CostMeter) RZ(q int, _ float64) { m.one(q, 0) }
func (m *CostMeter) P(q int, _ float64)  { m.one(q, 0) }

// CX prices one CX on (ctrl, tgt).
func (m *CostMeter) CX(ctrl, tgt int) {
	m.cost.CX++
	l := max(m.layer[ctrl], m.layer[tgt]) + 1
	m.layer[ctrl], m.layer[tgt] = l, l
	m.cost.Depth = max(m.cost.Depth, l)
	start := 0.0
	if m.avail[ctrl] > start {
		start = m.avail[ctrl]
	}
	if m.avail[tgt] > start {
		start = m.avail[tgt]
	}
	m.finish(start+m.d.TwoQubitNS, ctrl, tgt)
}

// MCP prices a multi-controlled phase as Decompose lowers it.
func (m *CostMeter) MCP(qubits []int, theta float64) {
	if w := m.n + len(qubits) - 2; w > len(m.layer) {
		// Ancilla qubits start idle, as in Decompose's wider register.
		m.layer = extend(m.layer, w)
		m.avail = extend(m.avail, w)
	}
	emitMCP(m, qubits, theta, m.n)
}

// extend returns s lengthened to w with the new entries zeroed.
func extend[T int | float64](s []T, w int) []T {
	old := len(s)
	s = slices.Grow(s, w-old)[:w]
	clear(s[old:])
	return s
}

func (m *CostMeter) one(q int, ns float64) {
	m.cost.OneQ++
	l := m.layer[q] + 1
	m.layer[q] = l
	m.cost.Depth = max(m.cost.Depth, l)
	start := 0.0
	if m.avail[q] > start {
		start = m.avail[q]
	}
	m.finish(start+ns, q, q)
}

func (m *CostMeter) finish(fin float64, a, b int) {
	m.avail[a], m.avail[b] = fin, fin
	if fin > m.cost.DurationNS {
		m.cost.DurationNS = fin
	}
}

// CXCostModel returns the paper's analytic two-qubit cost for a transition
// operator touching k qubits: 34·k CX gates (Section 3.2, citing [20]).
// The compiled V-chain used here is cheaper; experiments report both.
func CXCostModel(k int) int { return 34 * k }

// ValidateNative checks that a circuit contains only gates executable on
// the simulated devices (single-qubit gates and CX).
func ValidateNative(c *quantum.Circuit) error {
	for i, g := range c.Gates {
		switch g.Kind {
		case quantum.GateX, quantum.GateH, quantum.GateRX, quantum.GateRY,
			quantum.GateRZ, quantum.GateP, quantum.GateSX, quantum.GateCX:
		default:
			return fmt.Errorf("transpile: gate %d (%v) is not native", i, g.Kind)
		}
	}
	return nil
}
