package quantum

import "testing"

func TestCircuitDepth(t *testing.T) {
	c := NewCircuit(3)
	c.H(0)
	c.H(1)
	c.H(2) // layer 1
	c.CX(0, 1)
	c.CX(1, 2) // layers 2 and 3 (share qubit 1)
	if d := c.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
}

func TestTwoQubitDepthIgnores1Q(t *testing.T) {
	c := NewCircuit(2)
	c.H(0)
	c.RZ(1, 0.3)
	c.CX(0, 1)
	c.H(0)
	c.CX(0, 1)
	if d := c.TwoQubitDepth(); d != 2 {
		t.Errorf("TwoQubitDepth = %d, want 2", d)
	}
}

func TestParallelGatesShareLayer(t *testing.T) {
	c := NewCircuit(4)
	c.CX(0, 1)
	c.CX(2, 3)
	if d := c.Depth(); d != 1 {
		t.Errorf("disjoint CX should share a layer, depth = %d", d)
	}
}

func TestCounts(t *testing.T) {
	c := NewCircuit(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.MCP([]int{0, 1, 2}, 0.5)
	if c.CountKind(GateCX) != 2 {
		t.Errorf("CountKind(CX) = %d", c.CountKind(GateCX))
	}
	if c.CountTwoQubit() != 3 {
		t.Errorf("CountTwoQubit = %d, want 3", c.CountTwoQubit())
	}
}

func TestAppendValidation(t *testing.T) {
	c := NewCircuit(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-register gate accepted")
		}
	}()
	c.CX(0, 5)
}

func TestGateValidate(t *testing.T) {
	if err := (Gate{Kind: GateCX, Qubits: []int{1, 1}}).Validate(); err == nil {
		t.Error("repeated qubit accepted")
	}
	if err := (Gate{Kind: GateCX, Qubits: []int{0}}).Validate(); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := (Gate{Kind: GateMCP, Qubits: []int{}}).Validate(); err == nil {
		t.Error("empty MCP accepted")
	}
	if err := (Gate{Kind: GateMCP, Qubits: []int{0, 3, 5}}).Validate(); err != nil {
		t.Errorf("valid MCP rejected: %v", err)
	}
	// The first offending qubit in order names the error.
	for _, tc := range []struct {
		qubits []int
		want   string
	}{
		{[]int{4, 2, 7, 2, -1}, "quantum: mcp repeats qubit 2"},
		{[]int{4, -3, 4}, "quantum: mcp has negative qubit -3"},
		{[]int{5, 6, 5, 6}, "quantum: mcp repeats qubit 5"},
	} {
		err := (Gate{Kind: GateMCP, Qubits: tc.qubits}).Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate(mcp %v) = %v; want %q", tc.qubits, err, tc.want)
		}
	}
	g := Gate{Kind: GateMCP, Qubits: []int{0, 3, 5, 9, 12, 14}}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Validate() }); allocs != 0 {
		t.Errorf("Validate of a valid gate allocates %v times; want 0", allocs)
	}
}

func TestExtendAndClone(t *testing.T) {
	a := NewCircuit(2)
	a.H(0)
	b := NewCircuit(2)
	b.CX(0, 1)
	a.Extend(b)
	if len(a.Gates) != 2 {
		t.Errorf("Extend: %d gates", len(a.Gates))
	}
	c := a.Clone()
	c.Gates[0].Qubits[0] = 1
	if a.Gates[0].Qubits[0] != 0 {
		t.Error("Clone shares qubit slices")
	}
}

func TestEmptyCircuitDepthZero(t *testing.T) {
	if d := NewCircuit(5).Depth(); d != 0 {
		t.Errorf("empty depth = %d", d)
	}
}

func TestCircuitInverse(t *testing.T) {
	c := NewCircuit(3)
	c.H(0)
	c.RY(1, 0.7)
	c.CX(0, 1)
	c.MCP([]int{0, 1, 2}, 0.9)
	c.CCX(0, 1, 2)
	inv := c.Inverse()
	d := NewDense(3)
	// Random-ish initial state.
	d.ApplyGate(Gate{Kind: GateRY, Qubits: []int{0}, Theta: 1.1})
	d.ApplyGate(Gate{Kind: GateRZ, Qubits: []int{2}, Theta: 0.4})
	ref := d.Clone()
	d.Run(c)
	d.Run(inv)
	for x := uint64(0); x < 8; x++ {
		a, b := d.Amplitude(x), ref.Amplitude(x)
		if realAbs(real(a-b)) > 1e-9 || realAbs(imag(a-b)) > 1e-9 {
			t.Fatalf("U†U != I at %03b: %v vs %v", x, a, b)
		}
	}
}

func realAbs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestCircuitInversePanicsOnSX(t *testing.T) {
	c := NewCircuit(1)
	c.SX(0)
	defer func() {
		if recover() == nil {
			t.Error("SX inverse should panic")
		}
	}()
	c.Inverse()
}
