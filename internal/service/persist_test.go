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

// openDurable builds a server with a data directory whose lifecycle the
// test drives explicitly (restart tests need to close one instance and
// open another over the same directory).
func openDurable(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open durable server: %v", err)
	}
	return s, httptest.NewServer(s.Handler())
}

func shutdown(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ts.Close()
}

// TestPersistenceRestartRoundTrip: a completed job survives a clean
// restart — queryable under its original id with byte-identical result,
// and the result cache is rehydrated from the blob store.
func TestPersistenceRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":1,"max_iter":20},"wait_ms":60000}`

	a, tsA := openDurable(t, Config{DataDir: dir})
	code, sr1, _ := postSolve(t, tsA, req)
	if code != http.StatusOK || sr1.Status != api.StatusDone {
		t.Fatalf("solve: code %d status %s error %q", code, sr1.Status, sr1.Error)
	}
	if len(sr1.Result) == 0 {
		t.Fatal("done job carried no result")
	}
	shutdown(t, a, tsA)

	b, tsB := openDurable(t, Config{DataDir: dir})
	defer shutdown(t, b, tsB)

	// Original job id resolves with the identical payload.
	body := getBody(t, tsB.URL+"/v1/jobs/"+sr1.JobID)
	var recovered api.Job
	if err := json.Unmarshal([]byte(body), &recovered); err != nil {
		t.Fatalf("job after restart: %v (%s)", err, body)
	}
	if recovered.Status != api.StatusDone {
		t.Fatalf("recovered job status %s, want done", recovered.Status)
	}
	if !bytes.Equal(recovered.Result, sr1.Result) {
		t.Errorf("recovered result differs:\n%s\n%s", recovered.Result, sr1.Result)
	}

	// The cache was rehydrated: the identical request is a hit with the
	// byte-identical payload, no recomputation.
	code, sr2, _ := postSolve(t, tsB, req)
	if code != http.StatusOK || !sr2.Cached {
		t.Fatalf("after restart: code %d cached %v, want cache hit", code, sr2.Cached)
	}
	if !bytes.Equal(sr2.Result, sr1.Result) {
		t.Error("rehydrated cache payload differs from the original")
	}

	metricsText := getBody(t, tsB.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_jobs_recovered_total 1") {
		t.Errorf("metrics missing recovered counter:\n%s", grepMetrics(metricsText, "recovered"))
	}
}

// TestCrashRecoveryReenqueuesInterrupted: a job that was running when
// the server died is re-enqueued under its original id at the next
// startup, and the replayed solve yields the byte-identical payload a
// direct solve of the same request produces.
func TestCrashRecoveryReenqueuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	a, tsA := openDurable(t, Config{DataDir: dir, Executors: 1, Solve: stubSolve(block)})

	req := `{"spec":{"family":"FLP","scale":1,"case":1},"config":{"seed":7,"max_iter":15}}`
	code, sr, _ := postSolve(t, tsA, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d status %s", code, sr.Status)
	}
	// Crash: the journal goes away mid-run, so the terminal state is
	// never recorded. Later journal writes fail (logged, not fatal).
	if err := a.persist.journal.Close(); err != nil {
		t.Fatalf("simulated crash: %v", err)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = a.Drain(ctx)
	tsA.Close()

	// Restart with the real solver: the journaled submission replays.
	b, tsB := openDurable(t, Config{DataDir: dir})
	defer shutdown(t, b, tsB)

	deadline := time.Now().Add(60 * time.Second)
	var final api.Job
	for {
		body := getBody(t, tsB.URL+"/v1/jobs/"+sr.JobID)
		if err := json.Unmarshal([]byte(body), &final); err != nil {
			t.Fatalf("job %s after restart: %v (%s)", sr.JobID, err, body)
		}
		if final.Status == api.StatusDone || final.Status == api.StatusFailed || final.Status == api.StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after restart", sr.JobID, final.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.Status != api.StatusDone {
		t.Fatalf("replayed job ended %s (%s)", final.Status, final.Error)
	}

	// Byte-identity: the replayed payload equals a direct solve.
	spec, err := problems.ParseSpec([]byte(`{"family":"FLP","scale":1,"case":1}`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := b.buildOptions(api.Config{Seed: 7, MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalResultPayload(p, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, want) {
		t.Errorf("replayed payload differs from direct solve:\n%s\n%s", final.Result, want)
	}
}

// TestWarmStartStore: opt-in warm starts miss cold, hit exact on the
// second request for the same spec, hit the (family, scale) bucket for a
// sibling instance — and injection happens before the cache key, so a
// warm-started request never aliases a cold one's cache entry.
func TestWarmStartStore(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, Config{DataDir: dir})
	defer shutdown(t, s, ts)

	warm := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":3,"max_iter":15,"warm_start":true},"wait_ms":60000}`
	code, sr1, _ := postSolve(t, ts, warm)
	if code != http.StatusOK || sr1.Status != api.StatusDone {
		t.Fatalf("cold warm-start solve: code %d status %s error %q", code, sr1.Status, sr1.Error)
	}
	if s.warmMisses.Value() != 1 {
		t.Errorf("warm misses = %v, want 1", s.warmMisses.Value())
	}

	// Same spec again: exact hit. The injected times change the resolved
	// options, so this is a NEW cache key — a computed job, not a hit on
	// the cold entry.
	code, sr2, _ := postSolve(t, ts, warm)
	if code != http.StatusOK || sr2.Status != api.StatusDone {
		t.Fatalf("warm solve: code %d status %s error %q", code, sr2.Status, sr2.Error)
	}
	if sr2.Cached {
		t.Error("warm-started request aliased the cold request's cache entry")
	}
	if s.warmHitsExact.Value() != 1 {
		t.Errorf("exact warm hits = %v, want 1", s.warmHitsExact.Value())
	}

	// A third warm request hits the store again (the stored entry may
	// have been refreshed by the second solve, so the cache key can
	// differ — but the lookup itself is a hit either way).
	code, sr3, _ := postSolve(t, ts, warm)
	if code != http.StatusOK || sr3.Status != api.StatusDone {
		t.Fatalf("repeat warm solve: code %d status %s", code, sr3.Status)
	}
	if s.warmHitsExact.Value() != 2 {
		t.Errorf("exact warm hits = %v, want 2", s.warmHitsExact.Value())
	}

	// A sibling instance (same family and scale, different case) misses
	// exact but hits the family bucket.
	sibling := `{"spec":{"family":"FLP","scale":1,"case":2},"config":{"seed":3,"max_iter":15,"warm_start":true},"wait_ms":60000}`
	code, sr4, _ := postSolve(t, ts, sibling)
	if code != http.StatusOK || sr4.Status != api.StatusDone {
		t.Fatalf("sibling warm solve: code %d status %s error %q", code, sr4.Status, sr4.Error)
	}
	if s.warmHitsFamily.Value() != 1 {
		t.Errorf("family warm hits = %v, want 1", s.warmHitsFamily.Value())
	}

	metricsText := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`rasengan_warmstart_hits_total{kind="exact"} 2`,
		`rasengan_warmstart_hits_total{kind="family"} 1`,
		`rasengan_store_entries{store="warmstart"}`,
		"rasengan_warmstart_hit_ratio 0.75",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metricsText, "warm"))
		}
	}
}

// TestWarmStartInertWithoutDataDir: warm_start on an in-memory server is
// a no-op, not an error.
func TestWarmStartInertWithoutDataDir(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"warm_start":true},"wait_ms":60000}`)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("warm_start without data dir: code %d status %s error %q", code, sr.Status, sr.Error)
	}
}

// TestJobsListing: GET /v1/jobs paginates id-ordered summaries with a
// state filter and validated query parameters.
func TestJobsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d},"wait_ms":60000}`, i)
		if code, sr, _ := postSolve(t, ts, body); code != http.StatusOK || sr.Status != api.StatusDone {
			t.Fatalf("seed job %d: code %d status %s", i, code, sr.Status)
		}
	}

	var list api.JobList
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs?state=done")), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 5 || len(list.Jobs) != 5 {
		t.Fatalf("done listing: total %d, %d jobs, want 5/5", list.Total, len(list.Jobs))
	}
	for i := 1; i < len(list.Jobs); i++ {
		if list.Jobs[i-1].JobID >= list.Jobs[i].JobID {
			t.Fatalf("listing not id-ordered: %s before %s", list.Jobs[i-1].JobID, list.Jobs[i].JobID)
		}
	}

	// Pagination: limit 2 offset 3 yields the 4th and 5th jobs with the
	// unpaginated total.
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs?limit=2&offset=3")), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 5 || len(list.Jobs) != 2 || list.Limit != 2 || list.Offset != 3 {
		t.Fatalf("paginated listing: total %d, %d jobs, limit %d, offset %d", list.Total, len(list.Jobs), list.Limit, list.Offset)
	}

	// Filters that match nothing are empty, not errors.
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs?state=failed")), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 0 || len(list.Jobs) != 0 {
		t.Fatalf("failed listing: total %d, %d jobs, want empty", list.Total, len(list.Jobs))
	}

	// Invalid parameters are 400s.
	for _, q := range []string{"?state=bogus", "?limit=0", "?limit=9999", "?offset=-1", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: code %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestCapacityGauges: retention and cache capacity are visible on
// /metrics, with the disabled-cache sentinel reported as 0.
func TestCapacityGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil), CacheEntries: 7, JobRetention: 3})
	metricsText := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"rasengan_cache_capacity 7",
		"rasengan_job_retention_capacity 3",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metricsText, "capacity"))
		}
	}

	_, ts2 := newTestServer(t, Config{Solve: stubSolve(nil), CacheEntries: -1})
	if !strings.Contains(getBody(t, ts2.URL+"/metrics"), "rasengan_cache_capacity 0") {
		t.Error("disabled cache should expose capacity 0")
	}
}

// grepMetrics filters exposition text to lines containing needle, for
// readable failure messages.
func grepMetrics(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestReplayedJobRecordsSurviveRestart: jobs re-enqueued at a restart
// start running while Open is still recovering, and every record they
// journal must survive into the next start. Thirty jobs are interrupted
// by a crash, finish on the restarted server and shut down cleanly; a
// third start, under a solver that never returns, must find every one of
// them done. A compaction that ran after the re-enqueue would reset the
// WAL under those jobs and bring them back queued.
func TestReplayedJobRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 30
	block := make(chan struct{})
	a, tsA := openDurable(t, Config{DataDir: dir, Solve: stubSolve(block)})
	ids := make([]string, n)
	for i := range ids {
		body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":%d,"max_iter":5}}`, i+1)
		code, sr, _ := postSolve(t, tsA, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d status %s", i, code, sr.Status)
		}
		ids[i] = sr.JobID
	}
	// Crash: the journal closes with every job queued or running.
	if err := a.persist.journal.Close(); err != nil {
		t.Fatalf("simulated crash: %v", err)
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = a.Drain(ctx)
	tsA.Close()

	// Restart with an instant solver: every job re-runs to done.
	b, tsB := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	for _, id := range ids {
		j, ok := b.jobs.get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("replayed job %s never finished", id)
		}
		if v := j.snapshot(); v.Status != api.StatusDone {
			t.Fatalf("replayed job %s ended %s (%q)", id, v.Status, v.Error)
		}
	}
	shutdown(t, b, tsB)

	// Restart with a solver that never finishes: a job whose records were
	// lost re-enqueues and stays queued or running.
	never := make(chan struct{})
	c, tsC := openDurable(t, Config{DataDir: dir, Solve: stubSolve(never)})
	defer func() {
		close(never)
		shutdown(t, c, tsC)
	}()
	var lost []string
	for _, id := range ids {
		j, ok := c.jobs.get(id)
		if !ok {
			lost = append(lost, id+" missing")
			continue
		}
		if v := j.snapshot(); v.Status != api.StatusDone {
			lost = append(lost, id+" "+string(v.Status))
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d jobs lost their journaled completion across a restart: %v", len(lost), n, lost)
	}
}

// TestOpenCompactsOnce: an open writes one snapshot and resets the WAL
// once, whether retention drops nothing or drops jobs, so the WAL's fsync
// count right after Open is that one reset; on a new directory the
// header's fsync comes first.
func TestOpenCompactsOnce(t *testing.T) {
	dir := t.TempDir()
	a, tsA := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	if got := a.persist.journal.Syncs(); got != 2 {
		t.Errorf("new directory: %d WAL fsyncs during Open, want 2 (header, one compaction)", got)
	}
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d},"wait_ms":60000}`, i)
		if code, sr, _ := postSolve(t, tsA, body); code != http.StatusOK || sr.Status != api.StatusDone {
			t.Fatalf("solve %d: code %d status %s", i, code, sr.Status)
		}
	}
	shutdown(t, a, tsA)

	for _, tc := range []struct{ retention, recovered int }{{8, 4}, {2, 2}, {8, 2}} {
		s, ts := openDurable(t, Config{DataDir: dir, JobRetention: tc.retention, Solve: stubSolve(nil)})
		syncs, recovered := s.persist.journal.Syncs(), s.jobsRecovered.Value()
		shutdown(t, s, ts)
		if syncs != 1 {
			t.Errorf("retention %d: %d WAL fsyncs during Open, want 1 (one compaction)", tc.retention, syncs)
		}
		// The last open finds only what the retention-2 open compacted.
		if int(recovered) != tc.recovered {
			t.Errorf("retention %d: recovered %.0f jobs, want %d", tc.retention, recovered, tc.recovered)
		}
	}
}

// TestRetentionDeletesDroppedBlobs: a blob whose job retention dropped
// from the journal is deleted at the next open, and the kept job still
// serves its payload from its own blob.
func TestRetentionDeletesDroppedBlobs(t *testing.T) {
	dir := t.TempDir()
	a, tsA := openDurable(t, Config{DataDir: dir})
	var last api.Job
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d},"config":{"seed":1,"max_iter":10},"wait_ms":60000}`, i)
		code, sr, _ := postSolve(t, tsA, body)
		if code != http.StatusOK || sr.Status != api.StatusDone {
			t.Fatalf("solve %d: code %d status %s", i, code, sr.Status)
		}
		last = sr
	}
	shutdown(t, a, tsA)

	for reopen := 1; reopen <= 2; reopen++ {
		s, ts := openDurable(t, Config{DataDir: dir, JobRetention: 1})
		keys, err := s.persist.blobs.Keys()
		if err != nil {
			t.Fatal(err)
		}
		var got api.Job
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs/"+last.JobID)), &got); err != nil {
			t.Fatal(err)
		}
		shutdown(t, s, ts)
		if len(keys) != 1 {
			t.Errorf("reopen %d: %d blob files for 1 kept job, want 1", reopen, len(keys))
		}
		if got.Status != api.StatusDone || !bytes.Equal(got.Result, last.Result) {
			t.Errorf("reopen %d: kept job %s: status %s, payload identical %v", reopen, last.JobID, got.Status, bytes.Equal(got.Result, last.Result))
		}
	}
}

// FuzzPayloadKey: on any valid JSON, the cache key recovery reads from a
// journaled payload, and whether reading it fails, are what decoding the
// payload with encoding/json gives, whether the scan or the decoder
// answered.
func FuzzPayloadKey(f *testing.F) {
	real, err := json.Marshal(jobPayload{Spec: json.RawMessage(`{"problem":{"name":"a \"key\": b","n":2}}`),
		Config: api.Config{Seed: 3}, Key: "ab/cd", Problem: "F1/case0", Family: "FLP", Scale: 1, InitialTimes: []float64{0.5}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(real), `{}`, `{"key":"x"}`, `{"Key":"x"}`, `{"key":"a","key":"b"}`, `{"key":null}`, `{"key":1}`,
		`{"spec":{"key":"inner"},"key":"outer"}`, `{"spec":"}\"{,","key":"k"}`, `{"a":[1,{"b":[]}],"key":"k","c":true}`,
		`[]`, `null`, `"key"`, `{"a": 1,"key":"x"}`, `{"key":"x"}`, `{"key":"é"}`, `{"K":"x","key":"y"}`,
		"{\"\u212aey\":\"x\"}", `{ "key" : "x" }`, `{"a":1 ,"key":"x"}`, `{"key":"x","a":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return // the journal only returns Data it decoded
		}
		var pl struct {
			Key string `json:"key"`
		}
		wantErr := json.Unmarshal(data, &pl)
		key, err := payloadKey(data)
		if key != pl.Key || (err == nil) != (wantErr == nil) {
			t.Fatalf("payloadKey(%q) = %q, %v; json.Unmarshal gives %q, %v", data, key, err, pl.Key, wantErr)
		}
	})
}

// TestSeqFromID: recovery reads the submit sequence out of every id the
// service mints, past the 8-digit padding too, and 0 out of any other id.
func TestSeqFromID(t *testing.T) {
	for id, want := range map[string]uint64{
		"job-00000001": 1, "job-00012345": 12345, "job-123456789": 123456789,
		"job-": 0, "job-x": 0, "job-12x": 0, "job--1": 0, "n1.job-00000001": 0, "": 0,
	} {
		if got := seqFromID(id); got != want {
			t.Errorf("seqFromID(%q) = %d, want %d", id, got, want)
		}
	}
}

// TestTerminalJobsShareStateConcurrently: cache hits and restored jobs
// share one cancelled context and one closed done channel; hits, polls,
// cancels and event streams on them from many goroutines at once stay
// race-free and terminal.
func TestTerminalJobsShareStateConcurrently(t *testing.T) {
	dir := t.TempDir()
	req := `{"spec":{"family":"FLP","scale":1,"case":0},"wait_ms":60000}`
	a, tsA := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	code, first, _ := postSolve(t, tsA, req)
	if code != http.StatusOK || first.Status != api.StatusDone {
		t.Fatalf("solve: code %d status %s", code, first.Status)
	}
	shutdown(t, a, tsA)

	s, ts := openDurable(t, Config{DataDir: dir, Solve: stubSolve(nil)})
	defer shutdown(t, s, ts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				var hit api.Job
				err = json.NewDecoder(resp.Body).Decode(&hit)
				resp.Body.Close()
				if err != nil || !hit.Cached {
					t.Errorf("hit: cached %v err %v", hit.Cached, err)
					return
				}
				for _, id := range []string{hit.JobID, first.JobID} {
					for _, call := range []func() (*http.Response, error){
						func() (*http.Response, error) { return http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil) },
						func() (*http.Response, error) { return http.Get(ts.URL + "/v1/jobs/" + id + "/events") },
					} {
						resp, err := call()
						if err != nil {
							t.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if j, ok := s.jobs.get(id); !ok || j.snapshot().Status != api.StatusDone {
						t.Errorf("job %s not done after concurrent cancels", id)
					}
				}
			}
		}()
	}
	wg.Wait()
}
