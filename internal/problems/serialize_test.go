package problems

import (
	"fmt"
	"strings"
	"testing"
)

func TestProblemJSONRoundTrip(t *testing.T) {
	for _, b := range Suite()[:8] {
		p := b.Generate(0)
		data, err := ToJSON(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if back.N != p.N || back.Sense != p.Sense || back.NumConstraints() != p.NumConstraints() {
			t.Fatalf("%s: shape changed", p.Name)
		}
		// Objective must agree on every feasible state.
		for _, x := range EnumerateFeasible(p, 50) {
			if back.Objective(x) != p.Objective(x) {
				t.Fatalf("%s: objective changed at %v", p.Name, x)
			}
			if !back.Feasible(x) {
				t.Fatalf("%s: feasibility changed at %v", p.Name, x)
			}
		}
		if !back.Init.Equal(p.Init) {
			t.Errorf("%s: init changed", p.Name)
		}
	}
}

func TestProblemJSONRejectsMalformed(t *testing.T) {
	p := FLP(1, 0)
	data, err := ToJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		`{"version":99}`,
		`not json`,
		strings.Replace(string(data), `"initial_solution": "`, `"initial_solution": "x`, 1),
		strings.Replace(string(data), `"num_vars": 6`, `"num_vars": 2`, 1),
		strings.Replace(string(data), `"sense": "min"`, `"sense": "sideways"`, 1),
	}
	for i, src := range cases {
		if _, err := FromJSON([]byte(src)); err == nil {
			t.Errorf("case %d: malformed instance accepted", i)
		}
	}
}

func TestProblemJSONMaximizeSense(t *testing.T) {
	p, err := NewBuilder("max", 2).Maximize().
		Linear(0, 1).Linear(1, 2).
		Le(map[int]int64{0: 1, 1: 1}, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := ToJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sense != Maximize {
		t.Error("maximize sense lost")
	}
}

// TestFromJSONRejectsOverflowingRows pins the row-magnitude bound: a row
// whose exact sum wraps int64 (here 2^62 + 2^62 = 2^63, read as −2^63 by
// unchecked arithmetic, "satisfying" the rhs) is refused with the row
// named, and the bound itself is inclusive.
func TestFromJSONRejectsOverflowingRows(t *testing.T) {
	for _, tc := range []struct {
		rows, rhs string
		init      string
		wantRow   int // -1: accepted
	}{
		{`[[4611686018427387904,4611686018427387904]]`, `[-9223372036854775808]`, "11", 0},
		{`[[1,-1],[2305843009213693952,2305843009213693953]]`, `[0,0]`, "00", 1},
		{`[[1,1]]`, `[-9223372036854775808]`, "11", 0},
		{`[[0,-9223372036854775808]]`, `[0]`, "00", 0},
		{`[[2305843009213693952,2305843009213693952]]`, `[0]`, "00", -1},
		{`[[2305843009213693952,2305843009213693951]]`, `[2]`, "00", 0},
	} {
		src := `{"version":1,"name":"wrap","num_vars":2,"objective_linear":[1,1],` +
			`"constraint_rows":` + tc.rows + `,"constraint_rhs":` + tc.rhs + `,"initial_solution":"` + tc.init + `"}`
		p, err := FromJSON([]byte(src))
		if tc.wantRow < 0 {
			if err != nil {
				t.Errorf("%s: rejected at the bound: %v", tc.rows, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s = %s accepted (Feasible(%s) = %v)", tc.rows, tc.rhs, tc.init, p.Feasible(p.Init))
			continue
		}
		if want := fmt.Sprintf("constraint row %d:", tc.wantRow); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.rows, err, want)
		}
	}
}
