package cluster_test

// The in-process multi-node harness: real service.Server instances on
// httptest listeners fronted by a real Gateway, with node kill /
// restart / drain controls. Everything runs in one process so the
// failover and recovery tests are deterministic and -race-clean — no
// sleeps standing in for process lifecycle, no ports to leak.

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

	"rasengan/internal/cluster"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

type clusterNode struct {
	id  string
	srv *service.Server
	ts  *httptest.Server
}

type testCluster struct {
	t     testing.TB
	nodes []*clusterNode
	gw    *cluster.Gateway
	gwTS  *httptest.Server
	// client has a hard per-request timeout: a hung poller fails the
	// test instead of hanging it.
	client *http.Client
}

// fastRetry keeps test-time retries near-instant while preserving the
// policy shape (attempts, budget, Retry-After honoring).
func fastRetry() cluster.RetryPolicy {
	return cluster.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Budget:      2 * time.Second,
	}
}

// newTestCluster spins n service instances and a gateway over them.
// svcCfg may be nil (default config with the real solver); it receives
// the node index so nodes can differ (DataDir, stub solvers, ...).
func newTestCluster(t testing.TB, n int, svcCfg func(i int) service.Config, tune func(*cluster.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, client: &http.Client{Timeout: 10 * time.Second}}
	var backends []*cluster.Backend
	for i := 0; i < n; i++ {
		cfg := service.Config{}
		if svcCfg != nil {
			cfg = svcCfg(i)
		}
		srv, err := service.Open(cfg)
		if err != nil {
			t.Fatalf("open node %d: %v", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		node := &clusterNode{id: fmt.Sprintf("n%d", i+1), srv: srv, ts: ts}
		tc.nodes = append(tc.nodes, node)
		backends = append(backends, cluster.NewBackend(node.id, ts.URL))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
			_ = srv.Close()
		})
	}
	gcfg := cluster.Config{
		Backends:       backends,
		Seed:           1,
		Retry:          fastRetry(),
		HealthInterval: time.Hour, // tests drive probes via CheckHealth
	}
	if tune != nil {
		tune(&gcfg)
	}
	gw, err := cluster.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.gwTS.Close)
	return tc
}

// checkHealth runs k synchronous probe passes (k = the ejection or
// re-admission threshold being exercised).
func (tc *testCluster) checkHealth(k int) {
	tc.t.Helper()
	for i := 0; i < k; i++ {
		tc.gw.CheckHealth(context.Background())
	}
}

// kill closes the node's listener (in-flight and future connections
// fail at the transport) and marks it down for the health checker.
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	tc.nodes[i].ts.CloseClientConnections()
	tc.nodes[i].ts.Close()
}

// restart opens a fresh service on cfg (typically the same DataDir so
// the journal replays) behind a new listener and re-points the
// backend, the way a redeploy or DNS update would.
func (tc *testCluster) restart(i int, cfg service.Config) {
	tc.t.Helper()
	srv, err := service.Open(cfg)
	if err != nil {
		tc.t.Fatalf("restart node %d: %v", i, err)
	}
	ts := httptest.NewServer(srv.Handler())
	tc.nodes[i].srv = srv
	tc.nodes[i].ts = ts
	tc.gw.Backend(tc.nodes[i].id).SetURL(ts.URL)
	tc.t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = srv.Close()
	})
}

// --- request helpers (all bounded; none can hang the test) ---

type solveView struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
	Telemetry json.RawMessage `json:"telemetry"`
	Progress  json.RawMessage `json:"progress"`
}

func (tc *testCluster) post(url, body string) (int, string) {
	tc.t.Helper()
	resp, err := tc.client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		tc.t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// solve submits through the gateway and fails the test on transport
// errors; backend rejections come back in the view.
func (tc *testCluster) solve(body string) (int, solveView) {
	tc.t.Helper()
	code, raw := tc.post(tc.gwTS.URL+"/v1/solve", body)
	var v solveView
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
		tc.t.Fatalf("bad solve response (%d): %s", code, raw)
	}
	return code, v
}

// pollOnce GETs a job view through the gateway; transport errors are
// returned, not fatal (failover tests provoke them deliberately).
func (tc *testCluster) pollOnce(id string) (int, solveView, error) {
	resp, err := tc.client.Get(tc.gwTS.URL + "/v1/jobs/" + id)
	if err != nil {
		return 0, solveView{}, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v solveView
	if err := json.Unmarshal(raw, &v); err != nil {
		return resp.StatusCode, solveView{}, fmt.Errorf("bad body %q: %w", raw, err)
	}
	return resp.StatusCode, v, nil
}

// pollUntilDone polls through the gateway until the job reaches a
// terminal state, tolerating retryable rejections (503 during
// failover) but failing on hangs: every request is client-bounded and
// the whole loop deadlines.
func (tc *testCluster) pollUntilDone(id string, within time.Duration) solveView {
	tc.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		code, v, err := tc.pollOnce(id)
		switch {
		case err != nil:
			// transport blip mid-kill; retry
		case code == http.StatusServiceUnavailable || code == http.StatusBadGateway:
			// clean retryable error; retry
		case v.Status == "done" || v.Status == "failed" || v.Status == "canceled":
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	tc.t.Fatalf("job %s not terminal within %v", id, within)
	return solveView{}
}

// specJSON renders the canonical generator spec body.
func specJSON(family string, scale, caseIdx int) string {
	return fmt.Sprintf(`{"family":%q,"scale":%d,"case":%d}`, family, scale, caseIdx)
}

// specHash computes the canonical hash the gateway routes on.
func specHash(t *testing.T, spec string) string {
	t.Helper()
	s, err := problems.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// specOwnedBy scans case indices until it finds a spec the ring
// assigns to the wanted node — the deterministic way to aim traffic in
// failover tests.
func specOwnedBy(t *testing.T, gw *cluster.Gateway, owner, family string, scale int) string {
	t.Helper()
	for c := 0; c < 256; c++ {
		spec := specJSON(family, scale, c)
		if got, ok := gw.Ring().Lookup(specHash(t, spec)); ok && got == owner {
			return spec
		}
	}
	t.Fatalf("no %s scale-%d case in 0..255 routes to %s", family, scale, owner)
	return ""
}

// stubNodeSolve is a deterministic fast solver whose payload depends
// only on the problem — byte-identical from any node, like the real
// one. When block is non-nil it waits for release (or ctx), letting
// tests freeze a solve mid-flight. It publishes a few progress records
// so SSE and progress-view paths light up.
func stubNodeSolve(block <-chan struct{}) service.SolveFunc {
	return func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		if cell := opts.Telemetry.Progress; cell != nil {
			for i := 1; i <= 3; i++ {
				cell.Publish(obs.Progress{Iteration: i, BestEnergy: float64(10 - i), ElapsedMS: float64(i)})
			}
		}
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

// metricValue scrapes one scalar series from a /metrics endpoint.
func metricValue(t *testing.T, client *http.Client, base, series string) float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}
