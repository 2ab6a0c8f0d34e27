package cluster_test

// The multi-node gateway tests from the issue's headline deliverable:
// payload identity across serving nodes, cache affinity, batch
// sharding, failover mid-solve, the no-stash 503 path, SSE continuity
// through the proxy, draining ejection, hedged polls, and journal
// replay after a node restart. All in-process, all -race-clean.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/cluster"
	"rasengan/internal/service"
)

// solveBody wraps a spec into a POST /v1/solve body with a fixed
// deterministic config and a synchronous wait.
func solveBody(spec string, waitMS int) string {
	return fmt.Sprintf(`{"spec":%s,"config":{"seed":7,"max_iter":3,"shots":0},"wait_ms":%d}`, spec, waitMS)
}

// nodeIndex maps a ring owner id ("n3") back to its harness slot.
func nodeIndex(t *testing.T, owner string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(owner, "n%d", &i); err != nil || i < 1 {
		t.Fatalf("unexpected owner id %q", owner)
	}
	return i - 1
}

// TestClusterPayloadIdentity is the core serving-equivalence claim:
// the same spec solved through the gateway and directly on every
// individual backend yields byte-identical result payloads — the
// serving node is unobservable in the answer.
func TestClusterPayloadIdentity(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	for c := 0; c < 4; c++ {
		body := solveBody(specJSON("FLP", 1, c), 30000)
		code, via := tc.solve(body)
		if code != http.StatusOK || via.Status != "done" {
			t.Fatalf("case %d via gateway: code=%d status=%q err=%q", c, code, via.Status, via.Error)
		}
		if len(via.Result) == 0 {
			t.Fatalf("case %d: gateway returned no result", c)
		}
		owner, _ := tc.gw.Ring().Lookup(specHash(t, specJSON("FLP", 1, c)))
		if want := owner + "."; !strings.HasPrefix(via.JobID, want) {
			t.Errorf("case %d: job id %q not prefixed by ring owner %q", c, via.JobID, want)
		}
		for i, node := range tc.nodes {
			code, raw := tc.post(node.ts.URL+"/v1/solve", body)
			var direct solveView
			if err := json.Unmarshal([]byte(raw), &direct); err != nil || code != http.StatusOK {
				t.Fatalf("case %d node %d: code=%d err=%v body=%s", c, i, code, err, raw)
			}
			if !bytes.Equal(direct.Result, via.Result) {
				t.Errorf("case %d: node %d result differs from gateway result\n node: %s\n gate: %s",
					c, i, direct.Result, via.Result)
			}
		}
	}
}

// TestClusterCacheAffinity: resubmitting a spec routes to the same
// backend and hits its result cache — the affinity the hash ring
// exists to provide.
func TestClusterCacheAffinity(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	body := solveBody(specJSON("FLP", 1, 0), 30000)
	_, first := tc.solve(body)
	if first.Status != "done" || first.Cached {
		t.Fatalf("first solve: status=%q cached=%v, want fresh done", first.Status, first.Cached)
	}
	for i := 0; i < 3; i++ {
		_, again := tc.solve(body)
		if !again.Cached {
			t.Fatalf("resubmission %d missed the cache (routed off the owner?)", i)
		}
		if !bytes.Equal(again.Result, first.Result) {
			t.Fatalf("resubmission %d returned a different payload", i)
		}
		if split := strings.SplitN(again.JobID, ".", 2)[0]; split != strings.SplitN(first.JobID, ".", 2)[0] {
			t.Fatalf("resubmission %d served by %s, first by %s", i, split, first.JobID)
		}
	}
}

// TestClusterBatchSharding: a mixed batch is split per ring owner,
// merged back in order, and every item's job id is unique and
// prefixed with that item's ring owner.
func TestClusterBatchSharding(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	const n = 6
	var items []string
	for c := 0; c < n; c++ {
		items = append(items, fmt.Sprintf(`{"spec":%s,"config":{"seed":7,"max_iter":3}}`,
			specJSON("FLP", 1, c)))
	}
	code, raw := tc.post(tc.gwTS.URL+"/v1/solve/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: code=%d body=%s", code, raw)
	}
	var resp struct {
		Items []struct {
			Code   int             `json:"code"`
			JobID  string          `json:"job_id"`
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(raw), &resp); err != nil || len(resp.Items) != n {
		t.Fatalf("batch decode: err=%v items=%d body=%s", err, len(resp.Items), raw)
	}
	seen := map[string]bool{}
	owners := map[string]bool{}
	for c, it := range resp.Items {
		// Batch items are enqueue-only: 202 queued (200 only on a cache hit).
		if it.Code != http.StatusOK && it.Code != http.StatusAccepted {
			t.Fatalf("item %d: code=%d status=%q", c, it.Code, it.Status)
		}
		if it.JobID == "" || seen[it.JobID] {
			t.Fatalf("item %d: duplicate or empty job id %q in batch", c, it.JobID)
		}
		seen[it.JobID] = true
		owner, _ := tc.gw.Ring().Lookup(specHash(t, specJSON("FLP", 1, c)))
		if !strings.HasPrefix(it.JobID, owner+".") {
			t.Errorf("item %d: job id %q, want owner prefix %q", c, it.JobID, owner)
		}
		owners[owner] = true
		final := tc.pollUntilDone(it.JobID, 15*time.Second)
		if final.Status != "done" || len(final.Result) == 0 {
			t.Fatalf("item %d (%s): status=%q error=%q", c, it.JobID, final.Status, final.Error)
		}
	}
	if len(owners) < 2 {
		t.Errorf("all %d items landed on one backend; sharding untested (owners=%v)", n, owners)
	}
}

// TestClusterFailoverMidSolve: kill the owner while its solve is
// blocked mid-flight. Polling the stable gateway job id must never
// hang: the gateway re-submits the stashed request to the next ring
// replica and the job completes there with the payload the dead node
// would have produced.
func TestClusterFailoverMidSolve(t *testing.T) {
	block := make(chan struct{})
	tc := newTestCluster(t, 3, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	code, v := tc.solve(solveBody(spec, 0))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: code=%d status=%q", code, v.Status)
	}
	if !strings.HasPrefix(v.JobID, "n1.") {
		t.Fatalf("job %q not owned by n1", v.JobID)
	}

	tc.kill(0)
	close(block) // replicas solve instantly from here on

	final := tc.pollUntilDone(v.JobID, 15*time.Second)
	if final.Status != "done" || len(final.Result) == 0 {
		t.Fatalf("failover job: status=%q error=%q", final.Status, final.Error)
	}
	if final.JobID != v.JobID {
		t.Fatalf("job id changed across failover: %q → %q", v.JobID, final.JobID)
	}

	// Byte-identity: a surviving node solving the same spec directly
	// produces the same result payload.
	_, raw := tc.post(tc.nodes[1].ts.URL+"/v1/solve", solveBody(spec, 30000))
	var ref solveView
	if err := json.Unmarshal([]byte(raw), &ref); err != nil || ref.Status != "done" {
		t.Fatalf("reference solve: err=%v status=%q", err, ref.Status)
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("failover payload differs from reference\n got: %s\nwant: %s", final.Result, ref.Result)
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, "rasengan_gateway_failovers_total"); got < 1 {
		t.Errorf("rasengan_gateway_failovers_total = %g, want >= 1", got)
	}
}

// TestClusterFailoverNoStash: when the owner is dead and the stash is
// gone (evicted from a 1-entry job map), the poll answers a clean
// retryable 503 with Retry-After — never a hang, never a 200 lie.
func TestClusterFailoverNoStash(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, func(c *cluster.Config) { c.JobMapEntries = 1 })

	specA := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	_, a := tc.solve(solveBody(specA, 0))
	specB := specOwnedBy(t, tc.gw, "n2", "FLP", 1)
	_, _ = tc.solve(solveBody(specB, 0)) // evicts A's stash
	tc.kill(0)

	resp, err := tc.client.Get(tc.gwTS.URL + "/v1/jobs/" + a.JobID)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poll of stash-less job on dead owner: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After; clients cannot pace retries")
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, "rasengan_gateway_failover_unavailable_total"); got < 1 {
		t.Errorf("rasengan_gateway_failover_unavailable_total = %g, want >= 1", got)
	}
}

// TestClusterSSEContinuity: the event stream proxied through the
// gateway delivers the backend's progress frames and the terminal done
// event, flushed as they happen.
func TestClusterSSEContinuity(t *testing.T) {
	block := make(chan struct{})
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, nil)

	_, v := tc.solve(solveBody(specJSON("FLP", 1, 0), 0))
	if v.JobID == "" {
		t.Fatal("no job id")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, tc.gwTS.URL+"/v1/jobs/"+v.JobID+"/events", nil)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("open SSE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE: code=%d content-type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	events := make(chan string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()

	next := func() string {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream ended early")
			}
			return ev
		case <-ctx.Done():
			t.Fatal("no SSE event within the deadline")
		}
		return ""
	}

	// The stub published progress before blocking; the stream must
	// replay the latest record to a late subscriber.
	if ev := next(); ev != "progress" {
		t.Fatalf("first event %q, want progress", ev)
	}
	close(block)
	for {
		if ev := next(); ev == "done" {
			break
		}
	}
}

// TestClusterDrainingEjection: a draining backend probes as
// unavailable, gets ejected after the fail threshold (its keys reroute
// to the survivor, visible in job-id prefixes and the backend_up
// metric), and the gateway health endpoint reports the degradation.
func TestClusterDrainingEjection(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.nodes[0].srv.Drain(ctx); err != nil {
		t.Fatalf("drain n1: %v", err)
	}
	tc.checkHealth(2) // fail threshold

	if tc.gw.Backend("n1").Up() {
		t.Fatal("n1 still routable after draining past the fail threshold")
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, `rasengan_gateway_backend_up{backend="n1"}`); got != 0 {
		t.Errorf(`backend_up{backend="n1"} = %g, want 0`, got)
	}
	if got := metricValue(t, tc.client, tc.gwTS.URL, `rasengan_gateway_backend_up{backend="n2"}`); got != 1 {
		t.Errorf(`backend_up{backend="n2"} = %g, want 1`, got)
	}

	code, v := tc.solve(solveBody(spec, 30000))
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("solve with n1 ejected: code=%d status=%q err=%q", code, v.Status, v.Error)
	}
	if !strings.HasPrefix(v.JobID, "n2.") {
		t.Fatalf("n1-owned spec served by %q with n1 ejected, want n2", v.JobID)
	}

	resp, err := tc.client.Get(tc.gwTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz: code=%d err=%v", resp.StatusCode, err)
	}
	if health.State != "degraded" {
		t.Errorf("gateway state %q with one of two backends ejected, want degraded", health.State)
	}
}

// TestClusterRestartRecovery is the restart drill: a backend with a
// data directory dies mid-solve (listener torn down, journal intact),
// comes back at a new address, replays the journal, and the original
// gateway job id resolves to a payload byte-identical to an
// uninterrupted solo reference. No client-visible state is lost.
func TestClusterRestartRecovery(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	block := make(chan struct{})
	// Released at test end so the killed instance's stranded executor
	// finishes and cleanup Drain doesn't wait out its timeout.
	defer close(block)
	tc := newTestCluster(t, 2, func(i int) service.Config {
		return service.Config{Solve: stubNodeSolve(block), DataDir: dirs[i]}
	}, nil)

	spec := specOwnedBy(t, tc.gw, "n1", "FLP", 1)
	_, v := tc.solve(solveBody(spec, 0))
	if !strings.HasPrefix(v.JobID, "n1.") {
		t.Fatalf("job %q not on n1", v.JobID)
	}

	// Kill n1 mid-solve. No polls in between: the journal, not the
	// failover path, must carry this job.
	tc.kill(0)
	if err := tc.nodes[0].srv.Close(); err != nil {
		t.Fatalf("close n1 stores: %v", err)
	}
	tc.restart(0, service.Config{Solve: stubNodeSolve(nil), DataDir: dirs[0]})

	final := tc.pollUntilDone(v.JobID, 15*time.Second)
	if final.Status != "done" || len(final.Result) == 0 {
		t.Fatalf("replayed job: status=%q error=%q", final.Status, final.Error)
	}

	// Solo reference: the same request against a fresh single node that
	// never crashed.
	solo, err := service.Open(service.Config{Solve: stubNodeSolve(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	_, raw := tc.post(soloTS.URL+"/v1/solve", solveBody(spec, 30000))
	var ref solveView
	if err := json.Unmarshal([]byte(raw), &ref); err != nil || ref.Status != "done" {
		t.Fatalf("solo reference: err=%v status=%q", err, ref.Status)
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("replayed payload differs from uninterrupted reference\n got: %s\nwant: %s",
			final.Result, ref.Result)
	}
}

// TestClusterHedgedPoll: with the owner slow to answer job polls and
// the next replica holding the payload in cache, a hedged poll beats
// the owner and returns the replica's byte-identical answer under the
// original job id.
func TestClusterHedgedPoll(t *testing.T) {
	block := make(chan struct{})
	defer close(block)

	// n1: solves blocked, and job GETs delayed at the HTTP layer so the
	// hedge timer always fires first.
	n1 := service.New(service.Config{Solve: stubNodeSolve(block)})
	defer n1.Close()
	n1Handler := n1.Handler()
	slowN1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			time.Sleep(300 * time.Millisecond)
		}
		n1Handler.ServeHTTP(w, r)
	}))
	defer slowN1.Close()

	// n2: fast, unblocked.
	n2 := service.New(service.Config{Solve: stubNodeSolve(nil)})
	defer n2.Close()
	n2TS := httptest.NewServer(n2.Handler())
	defer n2TS.Close()

	gw, err := cluster.New(cluster.Config{
		Backends: []*cluster.Backend{
			cluster.NewBackend("n1", slowN1.URL),
			cluster.NewBackend("n2", n2TS.URL),
		},
		Seed:           1,
		Retry:          fastRetry(),
		HedgeDelay:     10 * time.Millisecond,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	spec := specOwnedBy(t, gw, "n1", "FLP", 1)
	body := solveBody(spec, 0)

	// Seed n2's cache with the payload directly.
	resp, err := client.Post(n2TS.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBody(spec, 30000)))
	if err != nil {
		t.Fatal(err)
	}
	var seeded solveView
	if err := json.NewDecoder(resp.Body).Decode(&seeded); err != nil || seeded.Status != "done" {
		t.Fatalf("seed n2: err=%v status=%q", err, seeded.Status)
	}
	resp.Body.Close()

	// Submit through the gateway: lands on blocked n1.
	resp, err = client.Post(gwTS.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub solveView
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || !strings.HasPrefix(sub.JobID, "n1.") {
		t.Fatalf("submit: err=%v id=%q", err, sub.JobID)
	}
	resp.Body.Close()

	// Poll: the owner sits on the request for 300ms; the hedge fires at
	// 10ms and n2's cache answers done.
	start := time.Now()
	resp, err = client.Get(gwTS.URL + "/v1/jobs/" + sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hedged solveView
	if err := json.NewDecoder(resp.Body).Decode(&hedged); err != nil {
		t.Fatal(err)
	}
	if hedged.Status != "done" {
		t.Fatalf("hedged poll: status=%q (elapsed %v), want the replica's done", hedged.Status, time.Since(start))
	}
	if hedged.JobID != sub.JobID {
		t.Fatalf("hedged answer under id %q, want the original %q", hedged.JobID, sub.JobID)
	}
	if !bytes.Equal(hedged.Result, seeded.Result) {
		t.Fatalf("hedged payload differs from the replica's cached payload")
	}
	if got := metricValue(t, client, gwTS.URL, "rasengan_gateway_hedge_wins_total"); got < 1 {
		t.Errorf("rasengan_gateway_hedge_wins_total = %g, want >= 1", got)
	}
}

// TestClusterRejectionPassthrough: when every backend is gone the
// gateway answers a retryable 503 with Retry-After on the solve path —
// the no-backend case is a clean rejection, not an error page or hang.
func TestClusterNoBackendRejection(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	tc.kill(0)
	tc.kill(1)
	tc.checkHealth(2)
	resp, err := tc.client.Post(tc.gwTS.URL+"/v1/solve", "application/json",
		strings.NewReader(solveBody(specJSON("FLP", 1, 0), 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve with no backends: code=%d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-backend 503 without Retry-After")
	}
}

// rawDo sends one request and returns its status and body bytes.
func (tc *testCluster) rawDo(method, url, body string) (int, string) {
	tc.t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.client.Do(req)
	if err != nil {
		tc.t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestGatewayJobsListingMerge: GET /v1/jobs lists every backend's jobs
// under gateway ids, sums the totals, and passes a backend's 400 through.
func TestGatewayJobsListingMerge(t *testing.T) {
	tc := newTestCluster(t, 2, func(int) service.Config {
		return service.Config{Solve: stubNodeSolve(nil)}
	}, nil)
	for _, owner := range []string{"n1", "n2"} {
		for c := 1; c <= 2; c++ {
			if code, v := tc.solve(solveBody(specOwnedBy(t, tc.gw, owner, "FLP", c), 10000)); code != http.StatusOK {
				t.Fatalf("solve on %s: %d %+v", owner, code, v)
			}
		}
	}
	type listing struct {
		Jobs []struct {
			JobID string `json:"job_id"`
		} `json:"jobs"`
		Total int `json:"total"`
	}
	var want []string
	wantTotal := 0
	for _, n := range tc.nodes {
		_, raw := tc.rawDo(http.MethodGet, n.ts.URL+"/v1/jobs", "")
		var l listing
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatal(err)
		}
		for _, j := range l.Jobs {
			want = append(want, n.id+"."+j.JobID)
		}
		wantTotal += l.Total
	}
	code, raw := tc.rawDo(http.MethodGet, tc.gwTS.URL+"/v1/jobs", "")
	var got listing
	if err := json.Unmarshal([]byte(raw), &got); err != nil || code != http.StatusOK {
		t.Fatalf("gateway listing: %d %s", code, raw)
	}
	var ids []string
	for _, j := range got.Jobs {
		ids = append(ids, j.JobID)
	}
	if fmt.Sprint(ids) != fmt.Sprint(want) || got.Total != wantTotal || wantTotal != 4 {
		t.Errorf("merged listing ids %v total %d, want %v total %d", ids, got.Total, want, wantTotal)
	}

	bCode, bRaw := tc.rawDo(http.MethodGet, tc.nodes[0].ts.URL+"/v1/jobs?limit=0", "")
	gCode, gRaw := tc.rawDo(http.MethodGet, tc.gwTS.URL+"/v1/jobs?limit=0", "")
	if bCode != http.StatusBadRequest || gCode != bCode || gRaw != bRaw {
		t.Errorf("bad limit: gateway %d %s, backend %d %s", gCode, gRaw, bCode, bRaw)
	}
}

// TestGatewayCancel: a cancel through the gateway reaches the owning
// backend and answers under the gateway id.
func TestGatewayCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	tc := newTestCluster(t, 2, func(int) service.Config {
		return service.Config{Solve: stubNodeSolve(block)}
	}, nil)
	spec := specOwnedBy(t, tc.gw, "n2", "FLP", 1)
	_, v := tc.solve(solveBody(spec, 0))
	if !strings.HasPrefix(v.JobID, "n2.") {
		t.Fatalf("job id %q not on n2", v.JobID)
	}
	code, raw := tc.rawDo(http.MethodPost, tc.gwTS.URL+"/v1/jobs/"+v.JobID+"/cancel", "")
	var c solveView
	if err := json.Unmarshal([]byte(raw), &c); err != nil || c.JobID != v.JobID {
		t.Fatalf("cancel: %d %s", code, raw)
	}
	if final := tc.pollUntilDone(v.JobID, 10*time.Second); final.Status != "canceled" {
		t.Errorf("after cancel: status %q", final.Status)
	}
	upstream := strings.TrimPrefix(v.JobID, "n2.")
	_, direct := tc.rawDo(http.MethodGet, tc.nodes[1].ts.URL+"/v1/jobs/"+upstream, "")
	if !strings.Contains(direct, `"status":"canceled"`) {
		t.Errorf("backend view after gateway cancel: %s", direct)
	}
}

// TestGatewayProblemsPassthrough: GET /v1/problems is a backend's body,
// byte for byte.
func TestGatewayProblemsPassthrough(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	resp, err := tc.client.Get(tc.gwTS.URL + "/v1/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	code, want := tc.rawDo(http.MethodGet, tc.nodes[0].ts.URL+"/v1/problems", "")
	if resp.StatusCode != code || string(got) != want || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("problems: gateway %d %q %s, backend %d %s",
			resp.StatusCode, resp.Header.Get("Content-Type"), got, code, want)
	}
}

// TestGatewayEscapesUpstreamJobID: a gateway job id is one path segment
// on the backend too. An encoded '?' or '/' in it must not turn into a
// query, another route, or a path walk on the backend.
func TestGatewayEscapesUpstreamJobID(t *testing.T) {
	tc := newTestCluster(t, 2, func(int) service.Config {
		return service.Config{Solve: stubNodeSolve(nil)}
	}, nil)
	if code, v := tc.solve(solveBody(specOwnedBy(t, tc.gw, "n1", "FLP", 1), 10000)); v.JobID != "n1.job-00000001" {
		t.Fatalf("setup solve: %d %+v", code, v)
	}
	for _, tt := range []struct{ method, path, upstream string }{
		{http.MethodGet, "/v1/jobs/n1.job-00000001%3Fstate=done", "job-00000001?state=done"},
		{http.MethodGet, "/v1/jobs/n1.job-00000001%2Fevents", "job-00000001/events"},
		{http.MethodGet, "/v1/jobs/n1.job-00000001%2F..%2F..%2Fmetrics", "job-00000001/../../metrics"},
		{http.MethodPost, "/v1/jobs/n1.job-00000001%3Fx=1/cancel", "job-00000001?x=1"},
		{http.MethodGet, "/v1/jobs/n1.job-00000001%3Fx=1/events", "job-00000001?x=1"},
	} {
		code, raw := tc.rawDo(tt.method, tc.gwTS.URL+tt.path, "")
		msg, _ := json.Marshal(fmt.Sprintf("unknown job %q", tt.upstream))
		want := `{"error":` + string(msg) + "}\n"
		if code != http.StatusNotFound || raw != want {
			t.Errorf("%s %s: %d %s, want 404 %s", tt.method, tt.path, code, raw, want)
		}
	}
}

// TestGatewayStrictBodies: the gateway rejects a malformed solve or
// batch body exactly as a backend does — same status, same message —
// instead of turning a backend's 400 into per-item 502s.
func TestGatewayStrictBodies(t *testing.T) {
	tc := newTestCluster(t, 2, func(int) service.Config {
		return service.Config{Solve: stubNodeSolve(nil)}
	}, nil)
	spec := specJSON("FLP", 1, 0)
	for _, tt := range []struct{ path, body string }{
		{"/v1/solve/batch", `{"items":[{"spec":` + spec + `,"bogus":1}]}`},
		{"/v1/solve/batch", `{"items":[{"spec":` + spec + `,"config":{"sead":1}}]}`},
		{"/v1/solve/batch", `{"items":[{"spec":` + spec + `}],"extra":true}`},
		{"/v1/solve", `{"spec":` + spec + `,"config":{"sead":1}}`},
		{"/v1/solve", `{"spec":` + spec + `,"bogus":1}`},
	} {
		wantCode, want := tc.rawDo(http.MethodPost, tc.nodes[0].ts.URL+tt.path, tt.body)
		code, got := tc.rawDo(http.MethodPost, tc.gwTS.URL+tt.path, tt.body)
		if wantCode != http.StatusBadRequest || code != wantCode || got != want {
			t.Errorf("%s %s: gateway %d %s, backend %d %s", tt.path, tt.body, code, got, wantCode, want)
		}
	}
}

// TestGatewayForwardsRequestValues: the gateway strict-decodes solve and
// batch bodies, but every backend still reads the spec and config the
// client sent — the same cache key, so the same payload.
func TestGatewayForwardsRequestValues(t *testing.T) {
	var mu sync.Mutex
	var received []api.SolveRequest
	var backends []*cluster.Backend
	for _, id := range []string{"n1", "n2"} {
		srv := service.New(service.Config{Solve: stubNodeSolve(nil)})
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(raw))
			var batch api.BatchRequest
			var one api.SolveRequest
			mu.Lock()
			switch r.URL.Path {
			case "/v1/solve/batch":
				if err := api.Decode(bytes.NewReader(raw), &batch); err != nil {
					t.Errorf("backend got an undecodable batch %s: %v", raw, err)
				}
				received = append(received, batch.Items...)
			case "/v1/solve":
				if err := api.Decode(bytes.NewReader(raw), &one); err != nil {
					t.Errorf("backend got an undecodable solve %s: %v", raw, err)
				}
				received = append(received, one)
			}
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			_ = srv.Drain(context.Background())
		})
		backends = append(backends, cluster.NewBackend(id, ts.URL))
	}
	gw, err := cluster.New(cluster.Config{Backends: backends, Seed: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()

	items := []string{
		`{"spec": { "family": "FLP", "scale": 1, "case": 0 }, "config": {"seed": 7, "shots": 0, "max_iter": 3}, "timeout_ms": 9000}`,
		`{"spec":{"family":"KPP","scale":1,"case":2},"config":{"device":"kyiv","sparsest_first":true,"warm_start":true}}`,
		`{"spec":{"family":"GCP","scale":1,"case":1},"wait_ms":5}`,
		`{"SPEC":{"family":"JSP","scale":1,"case":0},"Config":{"Seed":-4}}`,
	}
	post := func(path, body string) {
		resp, err := http.Post(gwTS.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/v1/solve/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	for _, item := range items {
		post("/v1/solve", item)
	}

	// key is what a backend derives from a request: the canonical spec
	// hash and every other field.
	key := func(req api.SolveRequest) string {
		return fmt.Sprintf("%s %+v %d %d", specHash(t, string(req.Spec)), req.Config, req.WaitMS, req.TimeoutMS)
	}
	var want, got []string
	for _, item := range items {
		var req api.SolveRequest
		if err := api.Decode(strings.NewReader(item), &req); err != nil {
			t.Fatal(err)
		}
		want = append(want, key(req), key(req))
	}
	for _, req := range received {
		got = append(got, key(req))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("backends received\n  %v\nwant\n  %v", got, want)
	}
}
