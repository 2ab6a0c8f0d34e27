package problems

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// Spec-hash pins: the canonical SHA-256 of every suite cell × cases 0–2,
// once as a generator spec and once as the inline spec of the same
// instance, plus explicit instances whose names and meta keys need
// escaping. Journals persist these hashes as cache keys, so none may
// change. Regenerate only after a deliberate change of the canonical
// encoding (which invalidates every deployed cache and journal) with:
//
//	go test ./internal/problems -run TestSpecHashPins -update

const specHashPinsPath = "testdata/spec_hashes.json"

type specHashPin struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// oracleSpec is the canonical shape the original encoder marshaled.
type oracleSpec struct {
	Kind    string          `json:"kind"`
	Family  string          `json:"family,omitempty"`
	Scale   int             `json:"scale,omitempty"`
	Case    int             `json:"case"`
	Problem json.RawMessage `json:"problem,omitempty"`
}

// oracleCanonical is the original canonical encoder, kept as the
// reference for Spec.Canonical: an explicit problem goes FromJSON →
// ToJSON (indented) → Compact, and the whole spec through json.Marshal,
// which compacts the raw problem once more.
func oracleCanonical(s *Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := oracleSpec{Kind: "generator", Family: s.Family, Scale: s.Scale, Case: s.Case}
	if len(s.Problem) > 0 {
		p, err := FromJSON(s.Problem)
		if err != nil {
			return nil, err
		}
		normalized, err := ToJSON(p)
		if err != nil {
			return nil, err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, normalized); err != nil {
			return nil, fmt.Errorf("problems: spec: %w", err)
		}
		c = oracleSpec{Kind: "instance", Problem: compact.Bytes()}
	}
	return json.Marshal(c)
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

type namedSpec struct {
	name string
	spec *Spec
}

// escapedInstances are explicit problems whose names and meta keys need
// JSON escaping (HTML characters, quotes, a backslash, a control
// character, U+2028, non-ASCII), plus one written by hand with reordered
// keys, odd spacing and exponent-form numbers.
func escapedInstances(t testing.TB) []namedSpec {
	t.Helper()
	f1 := Benchmark{Family: "FLP", Scale: 1}.Generate(0)
	f1.Name = `html <&> "quoted" naïve 中文`
	f1.Meta = map[string]int{"<tag>": 1, "naïve": 2, "z&y": 3}
	k2 := Benchmark{Family: "KPP", Scale: 2}.Generate(1)
	k2.Name = "back\\slash \x01 line\u2028sep Ωmega ✓"
	k2.Family = "KPP<custom>"
	var out []namedSpec
	for _, p := range []*Problem{f1, k2} {
		data, err := ToJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSpec{"inline " + p.Name, &Spec{Problem: data}})
	}
	handWritten := `{ "initial_solution":"101", "constraint_rhs":[1, 1],
		"constraint_rows":[[1,1,0],[0,1,1]], "objective_quad":[{"coef":-2.50,"j":2,"i":0}],
		"objective_linear":[1e0, 0.5E1, -3], "objective_constant":12.0,
		"sense":"max", "num_vars":3, "family":"hand", "name":"h&nd <written>", "version":1,
		"meta":{"b":2,"a":1} }`
	return append(out, namedSpec{"inline hand-written", &Spec{Problem: json.RawMessage(handWritten)}})
}

// pinnedSpecs lists the specs of the pin file, in file order.
func pinnedSpecs(t testing.TB) []namedSpec {
	t.Helper()
	var out []namedSpec
	for _, b := range Suite() {
		for c := 0; c <= 2; c++ {
			data, err := ToJSON(b.Generate(c))
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%s/case%d", b.Label(), c)
			out = append(out,
				namedSpec{id + " generator", SpecFor(b, c)},
				namedSpec{id + " inline", &Spec{Problem: data}})
		}
	}
	return append(out, escapedInstances(t)...)
}

// TestSpecHashPins checks every pinned spec against the pin file, both
// through Spec.Hash and through the oracle encoder.
func TestSpecHashPins(t *testing.T) {
	specs := pinnedSpecs(t)
	got := make([]specHashPin, len(specs))
	for i, ns := range specs {
		h, err := ns.spec.Hash()
		if err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		canon, err := oracleCanonical(ns.spec)
		if err != nil {
			t.Fatalf("%s: oracle: %v", ns.name, err)
		}
		if want := sha256Hex(canon); h != want {
			t.Errorf("%s: Hash %s, oracle %s", ns.name, h, want)
		}
		got[i] = specHashPin{Name: ns.name, SHA256: h}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specHashPinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d spec hashes to %s", len(got), specHashPinsPath)
		return
	}
	data, err := os.ReadFile(specHashPinsPath)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	var want []specHashPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("pin file has %d specs, the test builds %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("spec hash drifted:\n  pinned:  %+v\n  current: %+v", want[i], got[i])
		}
	}
}
