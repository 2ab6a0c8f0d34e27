package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// postRaw posts a body and returns the full response (headers included),
// for tests that assert on Retry-After.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOversubscribedBudgetIdenticalPayloads is the load test of the
// compute budget: 8 concurrent jobs, exact and noisy, on a 2-worker
// budget at GOMAXPROCS(2) — 4× logical oversubscription. Every solve
// records the lease width it actually ran under and the scheduler's
// invariants at full saturation, and every payload must match the
// byte-exact solo run of the same request.
func TestOversubscribedBudgetIdenticalPayloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	const jobs = 8
	const budget = 2

	var (
		srv     *Server
		entered int32
		barrier = make(chan struct{})
		mu      sync.Mutex
		widths  []int
		actives []int
		granted []int
	)
	probe := func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		// Hold every job at the barrier until all 8 are executing. The
		// last arriver samples the scheduler at full saturation — every
		// lease is held at that instant, none released yet.
		if atomic.AddInt32(&entered, 1) == jobs {
			mu.Lock()
			actives = append(actives, srv.budget.Active())
			granted = append(granted, srv.budget.Granted())
			mu.Unlock()
			close(barrier)
		}
		select {
		case <-barrier:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("load test barrier timed out")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		widths = append(widths, parallel.LimiterWidth(opts.Workers))
		mu.Unlock()
		return core.Solve(ctx, p, opts)
	}
	cfg := Config{
		Executors:    jobs, // all 8 run at once; the budget is what divides compute
		WorkerBudget: budget,
		Solve:        probe,
	}
	srv = New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// FLP scale-1 cases 0-3 under seeds 1 and 2. Every seed-2 job runs
	// on the noisy quebec device, so leases are renegotiated under
	// sampled trajectory solves as well as exact ones.
	reqs := make([]string, 0, jobs)
	for c := 0; c < 4; c++ {
		for seed := 1; seed <= 2; seed++ {
			noise := ""
			if seed == 2 {
				noise = `,"device":"quebec"`
			}
			reqs = append(reqs, fmt.Sprintf(
				`{"spec":{"family":"FLP","scale":1,"case":%d},"config":{"seed":%d,"max_iter":6,"shots":64%s},"wait_ms":120000}`, c, seed, noise))
		}
	}

	payloads := make([][]byte, jobs)
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r string) {
			defer wg.Done()
			code, sr, _ := postSolve(t, ts, r)
			if code != http.StatusOK || sr.Status != api.StatusDone {
				t.Errorf("job %d: code %d status %s error %q", i, code, sr.Status, sr.Error)
				return
			}
			payloads[i] = sr.Result
		}(i, r)
	}
	wg.Wait()

	// Scheduler invariants at 4× oversubscription: every lease holds the
	// floor of 1, no lease exceeds the budget, and at full saturation the
	// grant sum equals the active count (each job schedules at most 1
	// worker's worth of fan-out, so total live pool demand stays bounded
	// by max(budget, jobs-at-floor), never executors × pool width).
	mu.Lock()
	defer mu.Unlock()
	if len(widths) != jobs {
		t.Fatalf("probe saw %d solves, want %d", len(widths), jobs)
	}
	for i, w := range widths {
		if w < 1 || w > budget {
			t.Errorf("solve %d ran with lease width %d, want within [1,%d]", i, w, budget)
		}
	}
	if len(actives) != 1 || actives[0] != jobs {
		t.Errorf("saturation sample: %v active leases, want [%d]", actives, jobs)
	}
	if len(granted) != 1 || granted[0] != jobs { // active > budget ⇒ every lease at floor 1
		t.Errorf("saturation sample: grant sum %v, want [%d] (floor of 1 per lease)", granted, jobs)
	}

	// Byte-identity: the same 8 requests solo, on a fresh server with the
	// whole default budget, produce the identical payloads.
	solo, tsSolo := newTestServer(t, Config{})
	_ = solo
	for i, r := range reqs {
		code, sr, _ := postSolve(t, tsSolo, r)
		if code != http.StatusOK || sr.Status != api.StatusDone {
			t.Fatalf("solo job %d: code %d status %s", i, code, sr.Status)
		}
		if !bytes.Equal(sr.Result, payloads[i]) {
			t.Errorf("job %d payload under 4x oversubscription differs from solo run:\n%s\n%s",
				i, payloads[i], sr.Result)
		}
	}
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (int, api.BatchResponse) {
	t.Helper()
	resp := postRaw(t, ts.URL+"/v1/solve/batch", body)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad batch response %s: %v", raw, err)
		}
	}
	return resp.StatusCode, br
}

// TestBatchMixedOutcomes drives one batch through every per-item path:
// cache hit, coalesce onto an in-flight job, and queue-full rejection —
// mixed outcomes in a single request, statuses reported per item.
func TestBatchMixedOutcomes(t *testing.T) {
	var first int32
	block := make(chan struct{})
	gate := func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		// First solve (the cache primer) runs through; later solves block
		// so the executor and queue slot stay occupied.
		if atomic.AddInt32(&first, 1) > 1 {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return stubSolve(nil)(ctx, p, opts)
	}
	_, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 1, Solve: gate})
	defer close(block)

	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0},"wait_ms":30000}`)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("prime solve: code %d status %s", code, sr.Status)
	}
	// Occupy the executor (blocked) and the single queue slot.
	code, running, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("running job: code %d", code)
	}
	if code, _, _ = postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":2}}`); code != http.StatusAccepted {
		t.Fatalf("queued job: code %d", code)
	}

	batchBody := `{"items":[` +
		`{"spec":{"family":"FLP","scale":1,"case":0}},` + // cache hit
		`{"spec":{"family":"FLP","scale":1,"case":1}},` + // coalesces with running job
		`{"spec":{"family":"FLP","scale":1,"case":3}},` + // queue full → 429
		`{"spec":{"bogus":1}}` + // invalid spec → 4xx
		`]}`
	code, br := postBatch(t, ts, batchBody)
	if code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	if len(br.Items) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(br.Items))
	}
	if it := br.Items[0]; it.Code != http.StatusOK || !it.Cached || len(it.Result) == 0 {
		t.Errorf("item 0: code %d cached %v, want 200 cache hit with result", it.Code, it.Cached)
	}
	if it := br.Items[1]; it.Code != http.StatusAccepted || it.JobID != running.JobID {
		t.Errorf("item 1: code %d job %q, want 202 coalesced onto %q", it.Code, it.JobID, running.JobID)
	}
	if it := br.Items[2]; it.Code != http.StatusTooManyRequests || it.RetryAfterS < 1 {
		t.Errorf("item 2: code %d retry_after_s %d, want 429 with a hint", it.Code, it.RetryAfterS)
	}
	if it := br.Items[3]; it.Code < 400 || it.Code == http.StatusTooManyRequests || it.Error == "" {
		t.Errorf("item 3: code %d error %q, want a 4xx parse rejection", it.Code, it.Error)
	}

	// Oversized batches are rejected whole.
	items := make([]string, 0, 17)
	for i := 0; i < 17; i++ {
		items = append(items, fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d}}`, i%4))
	}
	if code, _ := postBatch(t, ts, `{"items":[`+strings.Join(items, ",")+`]}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("17-item batch: code %d, want 413", code)
	}
}

// TestBatchSharesOneFsync: a K-item batch of fresh jobs adds far fewer
// than K fsyncs — the accept records ride one group commit.
func TestBatchSharesOneFsync(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	s, ts := openDurable(t, Config{DataDir: dir, Executors: 1, QueueCapacity: 16, Solve: stubSolve(block)})

	before := s.persist.journal.Syncs()
	var items []string
	for i := 0; i < 4; i++ {
		items = append(items, fmt.Sprintf(`{"spec":{"family":"KPP","scale":1,"case":%d}}`, i))
	}
	code, br := postBatch(t, ts, `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	accepted := 0
	for _, it := range br.Items {
		if it.Code == http.StatusAccepted {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d of 4 batch items", accepted)
	}
	// One group commit for 4 submit records. The executor may have started
	// the first job (one state record) before we sample, so allow ≤ 2.
	if syncs := s.persist.journal.Syncs() - before; syncs > 2 {
		t.Errorf("4-item batch cost %d fsyncs, want the accept records on one group commit", syncs)
	}
	close(block)
	shutdown(t, s, ts)
}

// TestRetryAfterComputedOnRejections: both backpressure responses carry a
// Retry-After derived from queue state — the 429 a whole-second integer
// ≥ 1, and (the regression half) the draining 503 carries one at all.
func TestRetryAfterComputedOnRejections(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 1, Solve: stubSolve(block)})

	if code, _, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`); code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", code)
	}
	if code, _, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":1}}`); code != http.StatusAccepted {
		t.Fatalf("second submit: code %d", code)
	}
	resp := postRaw(t, ts.URL+"/v1/solve", `{"spec":{"family":"FLP","scale":1,"case":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: code %d, want 429", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if n, err := strconv.Atoi(retry); err != nil || n < 1 || n > 60 {
		t.Errorf("429 Retry-After = %q, want an integer in [1,60]", retry)
	}

	// Begin draining (executor still blocked keeps Drain pending), then
	// assert the 503 also carries the computed hint.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postRaw(t, ts.URL+"/v1/solve", `{"spec":{"family":"FLP","scale":1,"case":3}}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			retry := resp.Header.Get("Retry-After")
			if n, err := strconv.Atoi(retry); err != nil || n < 1 {
				t.Errorf("503 Retry-After = %q, want an integer >= 1", retry)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server never answered 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(block)
	<-drained
}

// TestShedWatermark: with a watermark configured, submissions are shed
// with 429 while the queue still has free slots, and the shed counter —
// not the queue-full counter — records them.
func TestShedWatermark(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 10, ShedWatermark: 0.3, Solve: stubSolve(block)})

	// Wait until the first job is off the queue and running, so queue load
	// is deterministic for the rest of the sequence.
	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.queue.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left the queue", sr.JobID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// 3 queued jobs reach the watermark: load 3 = int(0.3 × 10).
	for i := 1; i < 4; i++ {
		if code, _, _ := postSolve(t, ts, fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d}}`, i)); code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
	}
	resp := postRaw(t, ts.URL+"/v1/solve", `{"spec":{"family":"FLP","scale":1,"case":4}}`)
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission past the watermark: code %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "shedding load") {
		t.Errorf("shed response body: %s", raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 429 missing Retry-After")
	}
	if got := s.jobsShed.Value(); got != 1 {
		t.Errorf("rasengan_jobs_shed_total = %v, want 1", got)
	}
	if got := s.rejectedFull.Value(); got != 0 {
		t.Errorf("queue-full counter incremented by a shed rejection: %v", got)
	}
}

// TestRejectionLeavesNoJournalTrace is the regression for the
// accept-then-cancel churn: a synchronously rejected submission (429)
// must write nothing to the journal, so a restart over the same data
// directory surfaces no phantom canceled job.
func TestRejectionLeavesNoJournalTrace(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	a, tsA := openDurable(t, Config{DataDir: dir, Executors: 1, QueueCapacity: 1, Solve: stubSolve(block)})

	if code, _, _ := postSolve(t, tsA, `{"spec":{"family":"FLP","scale":1,"case":0}}`); code != http.StatusAccepted {
		t.Fatal("first submit not accepted")
	}
	if code, _, _ := postSolve(t, tsA, `{"spec":{"family":"FLP","scale":1,"case":1}}`); code != http.StatusAccepted {
		t.Fatal("second submit not accepted")
	}
	if code, _, _ := postSolve(t, tsA, `{"spec":{"family":"FLP","scale":1,"case":2}}`); code != http.StatusTooManyRequests {
		t.Fatal("overflow submit not rejected")
	}
	close(block)
	shutdown(t, a, tsA)

	b, tsB := openDurable(t, Config{DataDir: dir})
	defer shutdown(t, b, tsB)
	var listing api.JobList
	if err := json.Unmarshal([]byte(getBody(t, tsB.URL+"/v1/jobs")), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Total != 2 {
		t.Errorf("restart lists %d jobs, want exactly the 2 accepted ones", listing.Total)
	}
	for _, v := range listing.Jobs {
		if v.Status == api.StatusCanceled {
			t.Errorf("phantom canceled job %s journaled by a rejected submission", v.JobID)
		}
	}
}

// TestListingStableAcrossRestart: GET /v1/jobs pages identically before
// and after a restart over the same data directory — ordering is the
// submit sequence, not map iteration or string-sorted ids.
func TestListingStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a, tsA := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	for i := 0; i < 5; i++ {
		code, sr, _ := postSolve(t, tsA, fmt.Sprintf(
			`{"spec":{"family":"FLP","scale":1,"case":%d},"wait_ms":30000}`, i))
		if code != http.StatusOK || sr.Status != api.StatusDone {
			t.Fatalf("job %d: code %d status %s", i, code, sr.Status)
		}
	}
	pageURL := "/v1/jobs?state=done&limit=3&offset=1"
	before := getBody(t, tsA.URL+pageURL)
	shutdown(t, a, tsA)

	b, tsB := openDurable(t, Config{DataDir: dir})
	defer shutdown(t, b, tsB)
	after := getBody(t, tsB.URL+pageURL)
	if before != after {
		t.Errorf("page contents changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	var page api.JobList
	if err := json.Unmarshal([]byte(after), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 3 || page.Total != 5 {
		t.Fatalf("page shape: %d jobs, total %d, want 3 of 5", len(page.Jobs), page.Total)
	}
	for i := 1; i < len(page.Jobs); i++ {
		if page.Jobs[i-1].JobID >= page.Jobs[i].JobID {
			t.Errorf("listing out of submit order: %s before %s", page.Jobs[i-1].JobID, page.Jobs[i].JobID)
		}
	}
}

// TestWarmStartDimensionMismatchSkipped: a stored warm-start vector whose
// length does not match the request's schedule is never injected — the
// lookup counts a mismatch and falls through to a miss, so the cache key
// stays identical to the cold request's.
func TestWarmStartDimensionMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	defer shutdown(t, s, ts)

	spec, err := problems.ParseSpec([]byte(`{"family":"FLP","scale":1,"case":0}`))
	if err != nil {
		t.Fatal(err)
	}
	specHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.buildOptions(api.Config{Seed: 5, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := core.ScheduleParamCount(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Poison both warm-start sources with a wrong-length vector (as a
	// family bucket legitimately can hold, recorded from a sibling
	// instance with a different schedule width).
	bad := make([]float64, dim+3)
	for i := range bad {
		bad[i] = 0.5
	}
	if err := s.persist.warm.Put("spec:"+specHash, bad); err != nil {
		t.Fatal(err)
	}
	if err := s.persist.warm.Put(warmKeyFamily("FLP", 1), bad); err != nil {
		t.Fatal(err)
	}

	warm := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":5,"max_iter":10,"warm_start":true},"wait_ms":30000}`
	code, sr, _ := postSolve(t, ts, warm)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("warm solve: code %d status %s error %q", code, sr.Status, sr.Error)
	}
	if got := s.warmDimSkips.Value(); got != 2 { // exact key + family bucket both skipped
		t.Errorf("rasengan_warmstart_dim_mismatch_total = %v, want 2", got)
	}
	if got := s.warmHitsExact.Value() + s.warmHitsFamily.Value(); got != 0 {
		t.Errorf("mismatched vectors counted as warm hits: %v", got)
	}

	// No injection happened, so the cold spelling of the request is the
	// same cache key: it must hit.
	cold := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":5,"max_iter":10},"wait_ms":30000}`
	code, sr2, _ := postSolve(t, ts, cold)
	if code != http.StatusOK || !sr2.Cached {
		t.Errorf("cold request after skipped warm start: code %d cached %v, want cache hit (key must not fork)", code, sr2.Cached)
	}
	if !bytes.Equal(sr.Result, sr2.Result) {
		t.Error("cold payload differs from warm-skipped payload")
	}
}
