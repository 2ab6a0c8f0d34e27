package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rasengan/internal/api"
	"rasengan/internal/problems"
)

// reorderJSONKeys round-trips a JSON object through a Go map, which
// rewrites it with sorted keys — a semantically identical but byte-wise
// different wire spelling.
func reorderJSONKeys(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("reorder: %v", err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("reorder: %v", err)
	}
	return out
}

// TestCacheKeyInlineCanonicalization is the cache's metamorphic relation
// for inline problems: any wire spelling of the same instance — reordered
// object keys, different whitespace — must map to one cache entry, and a
// genuinely different instance must not.
func TestCacheKeyInlineCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inline, err := problems.ToJSON(problems.Benchmark{Family: "FLP", Scale: 1}.Generate(2))
	if err != nil {
		t.Fatal(err)
	}
	req := func(problem []byte) string {
		return fmt.Sprintf(`{"spec":{"problem":%s},"config":{"seed":1,"max_iter":25},"wait_ms":60000}`, problem)
	}

	code1, sr1, _ := postSolve(t, ts, req(inline))
	if code1 != http.StatusOK || sr1.Status != api.StatusDone {
		t.Fatalf("first solve: code %d, status %s, error %q", code1, sr1.Status, sr1.Error)
	}
	if sr1.Cached {
		t.Fatal("first solve reported cached")
	}

	// Same instance, keys reordered: must hit the same entry and return
	// the identical bytes.
	code2, sr2, _ := postSolve(t, ts, req(reorderJSONKeys(t, inline)))
	if code2 != http.StatusOK || !sr2.Cached {
		t.Fatalf("key-reordered spelling missed the cache: code %d, cached %v", code2, sr2.Cached)
	}
	if !bytes.Equal(sr1.Result, sr2.Result) {
		t.Fatalf("cache returned different bytes for equivalent spellings:\n%s\n%s", sr1.Result, sr2.Result)
	}

	// A canonically distinct instance (different generator case) must
	// miss: distinct problems may never alias to one key.
	other, err := problems.ToJSON(problems.Benchmark{Family: "FLP", Scale: 1}.Generate(3))
	if err != nil {
		t.Fatal(err)
	}
	code3, sr3, _ := postSolve(t, ts, req(other))
	if code3 != http.StatusOK || sr3.Status != api.StatusDone {
		t.Fatalf("distinct solve: code %d, status %s", code3, sr3.Status)
	}
	if sr3.Cached {
		t.Fatal("canonically distinct instance was served from the cache")
	}
}

// TestCacheKeyConfigDefaults: a config with defaults spelled out and one
// with them omitted are the same canonical config, hence one cache entry.
func TestCacheKeyConfigDefaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"family":"FLP","scale":1,"case":0}`

	code1, sr1, _ := postSolve(t, ts,
		fmt.Sprintf(`{"spec":%s,"config":{"seed":0,"max_iter":100,"shots":0},"wait_ms":120000}`, spec))
	if code1 != http.StatusOK || sr1.Status != api.StatusDone {
		t.Fatalf("explicit-defaults solve: code %d, status %s, error %q", code1, sr1.Status, sr1.Error)
	}
	code2, sr2, _ := postSolve(t, ts, fmt.Sprintf(`{"spec":%s,"wait_ms":120000}`, spec))
	if code2 != http.StatusOK || !sr2.Cached {
		t.Fatalf("omitted-defaults config missed the cache: code %d, cached %v", code2, sr2.Cached)
	}
	if !bytes.Equal(sr1.Result, sr2.Result) {
		t.Fatal("explicit and omitted defaults returned different bytes")
	}

	// A config that actually differs must miss.
	code3, sr3, _ := postSolve(t, ts,
		fmt.Sprintf(`{"spec":%s,"config":{"seed":5},"wait_ms":120000}`, spec))
	if code3 != http.StatusOK || sr3.Cached {
		t.Fatalf("different seed hit the cache: code %d, cached %v", code3, sr3.Cached)
	}
}

// TestCacheKeyGeneratorVsInline: a generator reference and the inline
// serialization of the instance it generates are deliberately distinct
// cache keys (canonicalization normalizes spelling, not provenance) —
// pinned here so the invariant is explicit rather than accidental.
func TestCacheKeyGeneratorVsInline(t *testing.T) {
	genSpec := &problems.Spec{Family: "FLP", Scale: 1, Case: 0}
	h1, err := genSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	inline, err := problems.ToJSON(problems.Benchmark{Family: "FLP", Scale: 1}.Generate(0))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := (&problems.Spec{Problem: inline}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("generator reference and inline instance unexpectedly share a hash; if canonicalization now resolves generators, update the cache docs")
	}
}
