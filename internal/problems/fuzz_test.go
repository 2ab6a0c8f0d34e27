package problems

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzSpecRoundTrip asserts the codec laws of the spec wire format:
// any bytes that parse must re-encode to a fixed point (encode → decode →
// encode is byte-identical from the first encode on), the canonical form
// and content hash must be stable across the round trip, and malformed
// input must produce an error, never a panic.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, fam := range Families {
		for scale := 1; scale <= 4; scale++ {
			data, err := json.Marshal(SpecFor(Benchmark{Family: fam, Scale: scale}, scale*7))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	inline, err := ToJSON(Benchmark{Family: "SCP", Scale: 1}.Generate(0))
	if err != nil {
		f.Fatal(err)
	}
	inlineSpec, _ := json.Marshal(&Spec{Problem: inline})
	f.Add(inlineSpec)
	// Historical panic: an oversized "initial_solution" string reached
	// bitvec.New via FromString and blew past the 192-bit capacity.
	f.Add([]byte(`{"problem":{"version":1,"name":"x","num_vars":1,"objective":{"linear":[1]},"initial_solution":"` + strings.Repeat("0", 4096) + `"}}`))
	f.Add([]byte(`{"family":"FLP"}`))
	f.Add([]byte(`{"family":"???","scale":9,"case":-3}`))
	f.Add([]byte(`{"problem":null}`))
	f.Add([]byte(`{"problem":{"version":99}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // malformed input may be rejected, only panics are bugs
		}
		enc1, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("parsed spec failed to marshal: %v", err)
		}
		s2, err := ParseSpec(enc1)
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v\nencoding: %s", err, enc1)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if string(enc1) != string(enc2) {
			t.Fatalf("encode→decode→encode not a fixed point:\n%s\n%s", enc1, enc2)
		}
		// Canonicalization and hashing must agree across the round trip
		// (and may fail only in tandem — e.g. an instance that parses as
		// JSON but fails semantic validation).
		h1, err1 := s.Hash()
		h2, err2 := s2.Hash()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("hashability changed across round trip: %v vs %v", err1, err2)
		}
		if err1 == nil && h1 != h2 {
			t.Fatalf("content hash changed across round trip: %s vs %s", h1, h2)
		}
	})
}

// FuzzSpecCanonical checks the canonical encoder against the original
// one (oracleCanonical in spec_pins_test.go): for every spec that parses,
// both produce the same bytes or the same error. For an explicit
// instance, the problem Address decodes on the way equals the one Build
// returns, which the service solves on a miss in its place.
func FuzzSpecCanonical(f *testing.F) {
	for _, b := range Suite() {
		data, err := json.Marshal(SpecFor(b, b.Scale))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, ns := range escapedInstances(f) {
		data, err := json.Marshal(ns.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"problem":{"version":1,"name":"x","num_vars":1,"objective_linear":[1],"constraint_rows":[],"constraint_rhs":[],"initial_solution":"0"}}`))
	f.Add([]byte(`{"problem":{"version":1,"num_vars":2,"objective_linear":[1,2],"objective_quad":[{"i":0,"j":1,"coef":-1e-7}],"constraint_rows":[[1,1]],"constraint_rhs":[1],"initial_solution":"10","meta":{"\u2028":1}}}`))
	f.Add([]byte(`{"problem":{"version":1,"num_vars":1,"objective_linear":[1],"initial_solution":"1","constraint_rows":[[1]],"constraint_rhs":[0]}}`))
	f.Add([]byte(`{"family":"GCP","scale":4,"case":1048576}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		got, errGot := s.Canonical()
		want, errWant := oracleCanonical(s)
		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("encoders disagree on rejection: %v vs oracle %v", errGot, errWant)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ:\n  got:    %s\n  oracle: %s", got, want)
		}
		if errGot != nil || len(s.Problem) == 0 {
			return
		}
		_, decoded, err := s.Address()
		if err != nil {
			t.Fatal(err)
		}
		built, err := s.Build()
		if err != nil {
			t.Fatalf("Address accepted what Build rejects: %v", err)
		}
		if !reflect.DeepEqual(decoded, built) {
			t.Fatalf("Address decoded %+v, Build built %+v", decoded, built)
		}
	})
}

// TestFromJSONOversizedInit pins the fuzz-found decoder panic: an
// "initial_solution" longer than the bit-vector capacity must be a
// decode error, not a panic.
func TestFromJSONOversizedInit(t *testing.T) {
	data := []byte(`{"version":1,"name":"x","num_vars":1,"objective":{"linear":[1]},"initial_solution":"` + strings.Repeat("1", 500) + `"}`)
	if _, err := FromJSON(data); err == nil {
		t.Fatal("FromJSON accepted a 500-bit initial solution")
	}
}
