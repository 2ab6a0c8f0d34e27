package core

import (
	"math"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/problems"
	"rasengan/internal/quantum"
	"rasengan/internal/transpile"
)

// decomposedCost prices tr the way NewExecutor once did: build the
// operator circuit, decompose it, and measure the result.
func decomposedCost(tr Transition, d transpile.GateDurations) opStats {
	dec := transpile.Decompose(tr.OperatorCircuit(len(tr.U), 0.5))
	return opStats{
		oneQ:       len(dec.Gates) - dec.CountTwoQubit(),
		twoQ:       dec.CountTwoQubit(),
		cx:         dec.CountKind(quantum.GateCX),
		depth:      dec.Depth(),
		durationNS: transpile.CircuitDurationNS(dec, d),
	}
}

func checkOperatorCost(t *testing.T, tr Transition, meter *transpile.CostMeter, d transpile.GateDurations) {
	t.Helper()
	got := priceOperator(tr, meter)
	want := decomposedCost(tr, d)
	if got.oneQ != want.oneQ || got.twoQ != want.twoQ || got.cx != want.cx || got.depth != want.depth ||
		math.Float64bits(got.durationNS) != math.Float64bits(want.durationNS) {
		t.Fatalf("u=%v durations=%+v: meter %+v, decomposed circuit %+v", tr.U, d, got, want)
	}
}

// FuzzOperatorCost: the cost meter must report exactly the gate counts,
// depth and duration of the decomposed operator circuit, for any ternary
// vector and any gate durations (the duration compared bitwise).
func FuzzOperatorCost(f *testing.F) {
	f.Add(uint8(4), []byte{2, 0, 1, 2}, 60.0, 560.0)
	f.Add(uint8(1), []byte{2}, 60.0, 560.0)
	f.Add(uint8(24), []byte{2, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 2, 2, 2}, 35.5, 660.0)
	f.Add(uint8(7), []byte{0, 0, 0, 0, 0, 0, 0}, 1.0, 2.0)
	f.Add(uint8(9), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1}, -3.0, math.Inf(1))
	f.Add(uint8(5), []byte{2, 1, 2, 1, 2}, math.NaN(), 0.0)
	f.Fuzz(func(t *testing.T, n uint8, trits []byte, oneQ, twoQ float64) {
		u := make([]int64, int(n%40)+1)
		for i := range u {
			if i < len(trits) {
				u[i] = int64(trits[i]%3) - 1
			}
		}
		d := transpile.GateDurations{OneQubitNS: oneQ, TwoQubitNS: twoQ}
		checkOperatorCost(t, Transition{U: u}, transpile.NewCostMeter(len(u), d), d)
	})
}

// TestOperatorCostSuiteBasis prices every basis vector of the 60 suite
// instances under the default and the kyiv timings, on one meter reused
// across each instance's vectors and on a fresh meter per vector.
func TestOperatorCostSuiteBasis(t *testing.T) {
	timings := []transpile.GateDurations{transpile.DefaultDurations(), device.Kyiv().Durations}
	vectors := 0
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			basis, err := BuildBasis(p, BasisOptions{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, d := range timings {
				shared := transpile.NewCostMeter(p.N, d)
				for _, u := range basis.Vectors {
					checkOperatorCost(t, Transition{U: u}, shared, d)
					checkOperatorCost(t, Transition{U: u}, transpile.NewCostMeter(p.N, d), d)
				}
			}
			vectors += len(basis.Vectors)
		}
	}
	if vectors == 0 {
		t.Fatal("no basis vectors priced")
	}
}

// TestOperatorPricingAllocsFlat: pricing an operator allocates a fixed
// number of times, not once per gate — supports of 4 and 24 qubits
// allocate the same, with a fresh meter and with a reused one.
func TestOperatorPricingAllocsFlat(t *testing.T) {
	const n = 24
	d := transpile.DefaultDurations()
	vec := func(k int) Transition {
		u := make([]int64, n)
		for i := 0; i < k; i++ {
			u[i*n/k] = int64(1 - 2*(i%2))
		}
		return Transition{U: u}
	}
	small, wide := vec(4), vec(24)
	fresh := func(tr Transition) float64 {
		return testing.AllocsPerRun(50, func() { priceOperator(tr, transpile.NewCostMeter(n, d)) })
	}
	meter := transpile.NewCostMeter(n, d)
	priceOperator(wide, meter) // grow the ancilla buffers once
	reused := func(tr Transition) float64 {
		return testing.AllocsPerRun(50, func() { priceOperator(tr, meter) })
	}
	if a, b := fresh(small), fresh(wide); a != b || a > 8 {
		t.Errorf("fresh meter: support 4 allocates %v times, support 24 %v; want equal and at most 8", a, b)
	}
	if a, b := reused(small), reused(wide); a != b || a > 1 {
		t.Errorf("reused meter: support 4 allocates %v times, support 24 %v; want equal and at most 1", a, b)
	}
}
