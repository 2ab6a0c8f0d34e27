package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/problems"
	"rasengan/internal/store"
)

// hugeMS is a millisecond count whose time.Duration product overflows
// int64 and wraps negative.
const hugeMS = 10_000_000_000_000

// postBatchRaw posts a batch body and returns the status and raw body.
func postBatchRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp := postRaw(t, ts.URL+"/v1/solve/batch", body)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestCacheHitObeysMaxVarsAndWarmStart: a cached payload does not lift
// the width limit. A journaled server solves F4 (21 variables); reopened
// with MaxVars 16 the same request gets the 422 of an uncached one, on
// /v1/solve and as a batch item, and counts neither a hit nor a miss;
// reopened with 40 it is a cached 200. A warm-start request for the
// cached spec still builds first: it consults the warm store, whose
// times become part of its key, so it is not served the cold entry.
func TestCacheHitObeysMaxVarsAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	const req = `{"spec":{"family":"FLP","scale":4,"case":0},"config":{"seed":5,"max_iter":8},"wait_ms":60000}`
	const warmReq = `{"spec":{"family":"FLP","scale":4,"case":0},"config":{"seed":5,"max_iter":8,"warm_start":true},"wait_ms":60000}`

	a, tsA := openDurable(t, Config{DataDir: dir, MaxVars: 40})
	code, first, _ := postSolve(t, tsA, req)
	if code != http.StatusOK || first.Status != api.StatusDone || first.Cached {
		t.Fatalf("first solve: code %d status %s cached %v error %q", code, first.Status, first.Cached, first.Error)
	}
	shutdown(t, a, tsA)

	narrow, tsN := openDurable(t, Config{DataDir: dir, MaxVars: 16})
	const wantMsg = `{"error":"problem has 21 variables; this server accepts at most 16"}` + "\n"
	for i := 0; i < 2; i++ { // the second round reads the width learned by the first
		code, _, raw := postSolve(t, tsN, req)
		if code != http.StatusUnprocessableEntity || string(raw) != wantMsg {
			t.Errorf("round %d: narrow server answered %d %s, want 422 %s", i, code, raw, wantMsg)
		}
	}
	code, raw := postBatchRaw(t, tsN, `{"items":[`+req+`]}`)
	const wantItem = `{"items":[{"code":422,"error":"problem has 21 variables; this server accepts at most 16"}]}` + "\n"
	if code != http.StatusOK || raw != wantItem {
		t.Errorf("narrow batch: %d %s, want 200 %s", code, raw, wantItem)
	}
	code, _, raw2 := postSolve(t, tsN, warmReq)
	if code != http.StatusUnprocessableEntity || string(raw2) != wantMsg {
		t.Errorf("narrow warm-start request: %d %s, want 422 %s", code, raw2, wantMsg)
	}
	if h, m := narrow.cacheHits.Value(), narrow.cacheMisses.Value(); h != 0 || m != 0 {
		t.Errorf("rejected requests counted %v hits and %v misses, want none", h, m)
	}
	if w := narrow.warmMisses.Value() + narrow.warmHitsExact.Value() + narrow.warmHitsFamily.Value(); w != 0 {
		t.Errorf("a too-wide warm-start request consulted the warm store (%v lookups)", w)
	}
	shutdown(t, narrow, tsN)

	wide, tsW := openDurable(t, Config{DataDir: dir, MaxVars: 40})
	defer shutdown(t, wide, tsW)
	code, hit, _ := postSolve(t, tsW, req)
	if code != http.StatusOK || !hit.Cached || string(hit.Result) != string(first.Result) {
		t.Fatalf("reopened at 40: code %d cached %v, want the cached payload", code, hit.Cached)
	}
	code, warm, _ := postSolve(t, tsW, warmReq)
	if code != http.StatusOK || warm.Status != api.StatusDone {
		t.Fatalf("warm-start request: code %d status %s error %q", code, warm.Status, warm.Error)
	}
	if warm.Cached {
		t.Error("warm-start request was served the cold request's cache entry")
	}
	if wide.warmHitsExact.Value() != 1 {
		t.Errorf("exact warm hits = %v, want 1", wide.warmHitsExact.Value())
	}
}

// TestHugeTimeoutDoesNotWrap: a timeout_ms past the int64 nanosecond
// range is capped at MaxTimeout, not wrapped into an expired deadline.
func TestHugeTimeoutDoesNotWrap(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":0},"timeout_ms":%d,"wait_ms":30000}`, int64(hugeMS))
	code, sr, _ := postSolve(t, ts, body)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("huge timeout_ms: code %d status %s error %q, want 200 done", code, sr.Status, sr.Error)
	}
}

// TestHugeWaitDoesNotWrap: a wait_ms past the int64 nanosecond range
// waits (up to MaxTimeout) instead of answering 202 at once.
func TestHugeWaitDoesNotWrap(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Solve: stubSolve(release)})
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":0},"wait_ms":%d}`, int64(hugeMS))
	code, sr, _ := postSolve(t, ts, body)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("huge wait_ms: code %d status %s, want 200 done", code, sr.Status)
	}
}

// TestReplayedHugeTimeoutDoesNotWrap: a journaled job with a huge
// timeout_ms, re-enqueued at recovery, runs to completion.
func TestReplayedHugeTimeoutDoesNotWrap(t *testing.T) {
	dir := t.TempDir()
	spec, err := problems.ParseSpec([]byte(`{"family":"FLP","scale":1,"case":0}`))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jobPayload{Spec: json.RawMessage(`{"family":"FLP","scale":1,"case":0}`),
		Key: hash + "/replayed", TimeoutMS: hugeMS})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("job-00000001", data); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	defer shutdown(t, s, ts)
	j1, ok := s.jobs.get("job-00000001")
	if !ok {
		t.Fatal("journaled job not recovered")
	}
	select {
	case <-j1.done:
	case <-time.After(30 * time.Second):
		t.Fatal("replayed job never finished")
	}
	if v := j1.snapshot(); v.Status != api.StatusDone {
		t.Fatalf("replayed job ended %s (%q), want done", v.Status, v.Error)
	}
}

// hitRequest answers one POST /v1/solve in process.
func hitRequest(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
	return rec
}

// cachedServer returns a server's handler with each body's payload
// already cached.
func cachedServer(tb testing.TB, cfg Config, bodies ...string) http.Handler {
	tb.Helper()
	s := New(cfg)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	h := s.Handler()
	for _, body := range bodies {
		if rec := hitRequest(h, body[:len(body)-1]+`,"wait_ms":60000}`); rec.Code != http.StatusOK {
			tb.Fatalf("warm-up %s: %d %s", body, rec.Code, rec.Body)
		}
		if rec := hitRequest(h, body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
			tb.Fatalf("%s is not a cache hit: %d %s", body, rec.Code, rec.Body)
		}
	}
	return h
}

func hitBody(family string, scale int) string {
	return fmt.Sprintf(`{"spec":{"family":%q,"scale":%d,"case":0},"config":{"seed":1,"max_iter":5}}`, family, scale)
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestCacheHitAllocsFlat: a generator-spec hit allocates the same on F1
// (6 variables) as on G4 (24), because a hit builds no problem.
func TestCacheHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	f1, g4 := hitBody("FLP", 1), hitBody("GCP", 4)
	h := cachedServer(t, Config{Solve: stubSolve(nil)}, f1, g4)
	allocs := func(body string) float64 {
		return testing.AllocsPerRun(200, func() { hitRequest(h, body) })
	}
	if a, b := allocs(f1), allocs(g4); a != b {
		t.Errorf("a cache hit allocates %v objects on F1 and %v on G4; a hit must not build the problem", a, b)
	}
}

func benchmarkCacheHit(b *testing.B, body string) {
	h := cachedServer(b, Config{}, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := hitRequest(h, body); rec.Code != http.StatusOK {
			b.Fatalf("hit answered %d", rec.Code)
		}
	}
}

// BenchmarkCacheHitGenerator times the service handler answering a
// generator-spec hit (F2 case 0), decode to written envelope.
func BenchmarkCacheHitGenerator(b *testing.B) {
	benchmarkCacheHit(b, `{"spec":{"family":"FLP","scale":2,"case":0},"config":{"seed":1,"max_iter":10}}`)
}

// BenchmarkCacheHitInline times the same hit for the inline spec of the
// same instance, which is decoded and canonicalized on every request.
func BenchmarkCacheHitInline(b *testing.B) {
	data, err := problems.ToJSON(problems.Benchmark{Family: "FLP", Scale: 2}.Generate(0))
	if err != nil {
		b.Fatal(err)
	}
	spec, err := json.Marshal(problems.Spec{Problem: data})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkCacheHit(b, `{"spec":`+string(spec)+`,"config":{"seed":1,"max_iter":10}}`)
}
