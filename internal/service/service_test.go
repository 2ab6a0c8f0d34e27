package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/problems"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (int, api.Job, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr api.Job
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return resp.StatusCode, sr, raw
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestEndToEndDeterminismAndCaching is the acceptance test of the
// subsystem: two identical solve requests return byte-identical result
// JSON, with the second served from the cache and counted in /metrics.
func TestEndToEndDeterminismAndCaching(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":1,"max_iter":25},"wait_ms":60000}`

	code1, sr1, _ := postSolve(t, ts, req)
	if code1 != http.StatusOK || sr1.Status != api.StatusDone {
		t.Fatalf("first solve: code %d, status %s, error %q", code1, sr1.Status, sr1.Error)
	}
	if sr1.Cached {
		t.Fatal("first solve reported cached")
	}
	code2, sr2, _ := postSolve(t, ts, req)
	if code2 != http.StatusOK || sr2.Status != api.StatusDone {
		t.Fatalf("second solve: code %d, status %s", code2, sr2.Status)
	}
	if !sr2.Cached {
		t.Fatal("second identical solve not served from cache")
	}
	if !bytes.Equal(sr1.Result, sr2.Result) {
		t.Fatalf("results differ:\n%s\n%s", sr1.Result, sr2.Result)
	}

	// A semantically identical request in a different wire spelling must
	// hit the same cache entry.
	code3, sr3, _ := postSolve(t, ts,
		`{"spec":{"case":0,"scale":1,"family":"FLP"},"config":{"max_iter":25,"seed":1},"wait_ms":60000}`)
	if code3 != http.StatusOK || !sr3.Cached {
		t.Errorf("reordered request missed the cache (code %d, cached %v)", code3, sr3.Cached)
	}
	if !bytes.Equal(sr1.Result, sr3.Result) {
		t.Error("reordered request returned different bytes")
	}

	// A different seed must NOT hit the cache.
	_, sr4, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":2,"max_iter":25},"wait_ms":60000}`)
	if sr4.Cached {
		t.Error("different seed incorrectly served from cache")
	}

	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_cache_hits_total 2") {
		t.Errorf("metrics do not show 2 cache hits:\n%s", grepLines(metricsText, "cache"))
	}
	if !strings.Contains(metricsText, "rasengan_jobs_completed_total 2") {
		t.Errorf("metrics do not show 2 completed jobs:\n%s", grepLines(metricsText, "jobs"))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestConcurrentMixedFamilies fires concurrent solves across all five
// families (some duplicated to exercise coalescing/caching) and then
// drains, asserting no accepted job is lost and duplicates are
// byte-identical.
func TestConcurrentMixedFamilies(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 4, QueueCapacity: 64})
	reqs := make([]string, 0, 10)
	for _, fam := range problems.Families {
		r := fmt.Sprintf(`{"spec":{"family":%q,"scale":1,"case":0},"config":{"seed":3,"max_iter":12},"wait_ms":120000}`, fam)
		reqs = append(reqs, r, r) // duplicate each
	}
	results := make([][]byte, len(reqs))
	codes := make([]int, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r string) {
			defer wg.Done()
			code, sr, _ := postSolve(t, ts, r)
			codes[i] = code
			if sr.Status == api.StatusDone {
				results[i] = sr.Result
			}
		}(i, r)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: code %d", i, code)
		}
		if len(results[i]) == 0 {
			t.Fatalf("request %d: no result", i)
		}
	}
	for i := 0; i < len(reqs); i += 2 {
		if !bytes.Equal(results[i], results[i+1]) {
			t.Errorf("duplicate requests %d/%d differ:\n%s\n%s", i, i+1, results[i], results[i+1])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("graceful drain lost jobs: %v", err)
	}
}

// stubSolve returns a canned result quickly, optionally blocking until
// released, so queue behavior can be tested without real solves.
func stubSolve(block <-chan struct{}) SolveFunc {
	return func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		if block != nil {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &core.Result{
			BestSolution: p.Init,
			BestValue:    p.Objective(p.Init),
			Expectation:  p.Objective(p.Init),
		}, nil
	}
}

func TestQueueFullReturns429(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 1, Solve: stubSolve(block)})

	specs := []string{
		`{"spec":{"family":"FLP","scale":1,"case":0}}`,
		`{"spec":{"family":"FLP","scale":1,"case":1}}`,
		`{"spec":{"family":"FLP","scale":1,"case":2}}`,
		`{"spec":{"family":"FLP","scale":1,"case":3}}`,
	}
	saw429 := false
	for _, body := range specs {
		code, _, raw := postSolve(t, ts, body)
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if !strings.Contains(string(raw), "queue full") {
				t.Errorf("429 body does not mention queue full: %s", raw)
			}
		default:
			t.Fatalf("unexpected code %d: %s", code, raw)
		}
	}
	if !saw429 {
		t.Error("submitting 4 jobs to a 1-slot queue with 1 blocked executor never returned 429")
	}
	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_jobs_rejected_queue_full_total") {
		t.Error("metrics missing queue-full rejection counter")
	}
}

func TestJobPollingLifecycle(t *testing.T) {
	block := make(chan struct{})
	_, ts := newTestServer(t, Config{Solve: stubSolve(block)})

	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"KPP","scale":1,"case":0}}`)
	if code != http.StatusAccepted || sr.Status != api.StatusQueued && sr.Status != api.StatusRunning {
		t.Fatalf("async submit: code %d status %s", code, sr.Status)
	}
	close(block)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got api.Job
		raw := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID)
		if err := json.Unmarshal([]byte(raw), &got); err != nil {
			t.Fatalf("poll: %s: %v", raw, err)
		}
		if got.Status == api.StatusDone {
			if len(got.Result) == 0 {
				t.Fatal("done job has no result")
			}
			break
		}
		if got.Status == api.StatusFailed || got.Status == api.StatusCanceled {
			t.Fatalf("job ended %s: %s", got.Status, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unknown job → 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", resp.StatusCode)
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{Solve: stubSolve(block), DefaultTimeout: 50 * time.Millisecond})
	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"SCP","scale":1,"case":0},"wait_ms":5000}`)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if sr.Status != api.StatusFailed || !strings.Contains(sr.Error, "deadline") {
		t.Fatalf("status %s error %q, want failed/deadline", sr.Status, sr.Error)
	}
}

func TestJobCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{Solve: stubSolve(block)})
	_, sr, _ := postSolve(t, ts, `{"spec":{"family":"GCP","scale":1,"case":0}}`)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+sr.JobID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got api.Job
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs/"+sr.JobID)), &got); err != nil {
			t.Fatal(err)
		}
		if got.Status == api.StatusCanceled {
			break
		}
		if got.Status == api.StatusDone || got.Status == api.StatusFailed {
			t.Fatalf("canceled job ended %s", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel did not settle (status %s)", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, raw := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining submit: code %d (%s), want 503", code, raw)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	cases := []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"spec":{"family":"XLP","scale":1}}`, http.StatusUnprocessableEntity},
		{`{"spec":{"family":"FLP","scale":9}}`, http.StatusUnprocessableEntity},
		{`{"spec":{"family":"FLP","scale":1},"config":{"max_iter":100000}}`, http.StatusUnprocessableEntity},
		{`{"spec":{"family":"FLP","scale":1},"config":{"shots":-5}}`, http.StatusUnprocessableEntity},
		{`{"spec":{"family":"FLP","scale":1},"config":{"device":"nonexistent"}}`, http.StatusUnprocessableEntity},
		{`{"spec":{"family":"FLP","scale":1},"unknown_field":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, raw := postSolve(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: code %d (%s), want %d", tc.body, code, raw, tc.code)
		}
	}
}

// TestInlineSpecWithOverflowingRowRejected sends an inline problem whose
// only row sums to 2^63 (wrapping to the rhs −2^63 in unchecked int64
// arithmetic): it gets the 422 of every unbuildable spec, naming the row.
func TestInlineSpecWithOverflowingRowRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	body := `{"spec":{"problem":{"version":1,"name":"wrap","num_vars":2,"objective_linear":[1,1],` +
		`"constraint_rows":[[4611686018427387904,4611686018427387904]],"constraint_rhs":[-9223372036854775808],` +
		`"initial_solution":"11"}}}`
	code, _, raw := postSolve(t, ts, body)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "constraint row 0") {
		t.Errorf("overflowing row: code %d body %s, want 422 naming constraint row 0", code, raw)
	}
}

func TestMaxVarsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil), MaxVars: 5})
	code, _, raw := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "variables") {
		t.Errorf("wide problem: code %d body %s, want 422 mentioning variables", code, raw)
	}
}

func TestProblemsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	raw := getBody(t, ts.URL+"/v1/problems")
	var listing struct {
		Families []string `json:"families"`
		Problems []struct {
			Label   string `json:"label"`
			NumVars int    `json:"num_vars"`
		} `json:"problems"`
	}
	if err := json.Unmarshal([]byte(raw), &listing); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	if len(listing.Families) != 5 || len(listing.Problems) != 20 {
		t.Errorf("listing has %d families, %d problems; want 5, 20", len(listing.Families), len(listing.Problems))
	}
	for _, p := range listing.Problems {
		if p.NumVars < 1 {
			t.Errorf("%s: num_vars %d", p.Label, p.NumVars)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	raw := getBody(t, ts.URL+"/healthz")
	// Legacy liveness shape first: CI smokes grep "status":"ok".
	if !strings.Contains(raw, `"status":"ok"`) {
		t.Errorf("healthz body: %s", raw)
	}
	var view struct {
		Status    string `json:"status"`
		State     string `json:"state"`
		Queued    int    `json:"queued"`
		Executing int    `json:"executing"`
	}
	if err := json.Unmarshal([]byte(raw), &view); err != nil {
		t.Fatalf("healthz not JSON: %s", raw)
	}
	if view.State != "ok" || view.Queued != 0 || view.Executing != 0 {
		t.Errorf("healthz view = %+v, want state ok with zero occupancy", view)
	}

	// Draining flips state but keeps the 200/"status":"ok" liveness shape.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	raw = getBody(t, ts.URL+"/healthz")
	if !strings.Contains(raw, `"status":"ok"`) || !strings.Contains(raw, `"state":"draining"`) {
		t.Errorf("draining healthz body: %s", raw)
	}
}

// TestCoalescingJoinsInflightDuplicates checks that an identical request
// arriving while the first is still executing joins that job instead of
// queuing a second solve.
func TestCoalescingJoinsInflightDuplicates(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 8, Solve: stubSolve(block)})
	body := `{"spec":{"family":"JSP","scale":1,"case":0},"config":{"seed":9}}`
	_, sr1, _ := postSolve(t, ts, body)
	_, sr2, _ := postSolve(t, ts, body)
	if sr1.JobID != sr2.JobID {
		t.Errorf("identical in-flight requests got distinct jobs %s vs %s", sr1.JobID, sr2.JobID)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if s.jobs == nil {
		t.Fatal("unreachable")
	}
	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_jobs_coalesced_total 1") {
		t.Errorf("coalescing not counted:\n%s", grepLines(metricsText, "coalesced"))
	}
}

// TestResultPayloadDeterministic solves the same instance twice through
// separate servers (no cache sharing) and checks the payload bytes
// match — the determinism contract the cache relies on.
func TestResultPayloadDeterministic(t *testing.T) {
	req := `{"spec":{"family":"KPP","scale":1,"case":1},"config":{"seed":5,"max_iter":20},"wait_ms":60000}`
	var payloads [][]byte
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Config{})
		_, sr, _ := postSolve(t, ts, req)
		if sr.Status != api.StatusDone {
			t.Fatalf("run %d: status %s error %q", i, sr.Status, sr.Error)
		}
		payloads = append(payloads, sr.Result)
		ts.Close()
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatalf("fresh solves differ across server instances:\n%s\n%s", payloads[0], payloads[1])
	}
}
