package cluster_test

// Wire pins: every endpoint and outcome of the HTTP API, driven once
// against one solve service directly and once through a gateway over two
// stub-solver backends. Each response's status, Content-Type, Retry-After
// presence and body bytes are compared with testdata/wire_pins.json, so
// any drift in field order, omitempty or error text fails here. Regenerate
// after an intentional wire change with:
//
//	go test ./internal/cluster -run TestWirePins -update

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rasengan/internal/cluster"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

var updateWire = flag.Bool("update", false, "regenerate testdata/wire_pins.json from the current handlers")

const wirePinsPath = "testdata/wire_pins.json"

// wirePin is one recorded response.
type wirePin struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	RetryAfter  bool   `json:"retry_after"`
	Body        string `json:"body"`
}

// wireStub is a deterministic solver whose behaviour follows the family:
// KPP publishes progress, reports that it started, and blocks until
// release; GCP fails; every other family returns at once with a fixed
// convergence trace.
type wireStub struct {
	started chan struct{}
	release chan struct{}
}

func newWireStub() *wireStub {
	return &wireStub{started: make(chan struct{}, 1), release: make(chan struct{})}
}

func (s *wireStub) solve(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
	switch p.Family {
	case "KPP":
		for i := 1; i <= 3; i++ {
			opts.Telemetry.Progress.Publish(obs.Progress{Start: 0, Iter: i - 1, BestEnergy: float64(10 - i),
				ParamNorm: 0.5 * float64(i), ElapsedMS: float64(i)})
		}
		s.started <- struct{}{}
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case "GCP":
		return nil, errors.New("stub failure")
	}
	return &core.Result{
		BestSolution: p.Init,
		BestValue:    p.Objective(p.Init),
		Expectation:  p.Objective(p.Init),
		Convergence: []core.IterationTelemetry{
			{Start: 0, Iter: 0, BestEnergy: 4, ParamNorm: 1.25, ElapsedMS: 2},
			{Start: 0, Iter: 1, BestEnergy: 3.5, ParamNorm: 1.5, ElapsedMS: 4},
		},
	}, nil
}

func wireServiceConfig(stub *wireStub) service.Config {
	return service.Config{Executors: 1, QueueCapacity: 1, Solve: stub.solve}
}

// wireRun records responses from one API target.
type wireRun struct {
	t      *testing.T
	base   string
	client *http.Client
	pins   []wirePin
}

var retryAfterS = regexp.MustCompile(`"retry_after_s":\d+`)

func (r *wireRun) do(name, method, path, body string) wirePin {
	r.t.Helper()
	req, err := http.NewRequest(method, r.base+path, strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	pin := wirePin{
		Name:        name,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After") != "",
		// retry_after_s comes from observed wall time; only its presence
		// is part of the wire.
		Body: retryAfterS.ReplaceAllString(string(raw), `"retry_after_s":"*"`),
	}
	r.pins = append(r.pins, pin)
	return pin
}

// jobID extracts the job id of a recorded solve or poll response.
func (r *wireRun) jobID(p wirePin) string {
	r.t.Helper()
	var v struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(p.Body), &v); err != nil || v.JobID == "" {
		r.t.Fatalf("%s: no job id in %s", p.Name, p.Body)
	}
	return v.JobID
}

// waitStatus polls (unrecorded) until the job reports want.
func (r *wireRun) waitStatus(id, want string) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := r.client.Get(r.base + "/v1/jobs/" + id)
		if err == nil {
			var v struct {
				Status string `json:"status"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if v.Status == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.t.Fatalf("job %s never reached %q", id, want)
}

// wireSpecs are the request specs of one run. The gateway run picks them
// so the blocking, queued, rejected and draining flows all land on n1;
// the direct run reuses the same bodies.
type wireSpecs struct {
	computed, block, queued, rejected, failed, drained string
}

func pickWireSpecs(t *testing.T, gw *cluster.Gateway) wireSpecs {
	t.Helper()
	c := 0
	nextFLPOnN1 := func() string {
		for ; c < 256; c++ {
			spec := specJSON("FLP", 1, c)
			if owner, _ := gw.Ring().Lookup(specHash(t, spec)); owner == "n1" {
				c++
				return spec
			}
		}
		t.Fatal("too few FLP cases on n1")
		return ""
	}
	return wireSpecs{
		computed: specOwnedBy(t, gw, "n2", "FLP", 2),
		block:    specOwnedBy(t, gw, "n1", "KPP", 1),
		queued:   nextFLPOnN1(),
		rejected: nextFLPOnN1(),
		failed:   specOwnedBy(t, gw, "n2", "GCP", 1),
		drained:  nextFLPOnN1(),
	}
}

func wireSolve(spec string, waitMS int) string {
	body := `{"spec":` + spec + `,"config":{"seed":3,"max_iter":5}`
	if waitMS > 0 {
		body += `,"wait_ms":` + strconv.Itoa(waitMS)
	}
	return body + "}"
}

// drive runs the full endpoint sequence against one target. unknownJob is
// a well-formed id the target has never minted; drain makes the target's
// solve intake answer 503; health says whether the target's /healthz is
// part of the pins.
func (r *wireRun) drive(s wireSpecs, stub *wireStub, unknownJob string, drain func(), health bool) {
	t := r.t
	t.Helper()

	computed := r.do("solve computed", "POST", "/v1/solve", wireSolve(s.computed, 10000))
	r.do("solve cached", "POST", "/v1/solve", wireSolve(s.computed, 10000))
	r.do("solve 400 malformed", "POST", "/v1/solve", `{"spec":`)
	r.do("solve 400 unknown field", "POST", "/v1/solve", `{"spec":`+s.computed+`,"bogus":1}`)
	r.do("solve 400 missing spec", "POST", "/v1/solve", `{"config":{"seed":1}}`)
	r.do("solve 422 spec", "POST", "/v1/solve", `{"spec":{"family":"NOPE","scale":1,"case":0}}`)
	r.do("solve 422 config", "POST", "/v1/solve", `{"spec":`+s.computed+`,"config":{"max_iter":100000}}`)

	// Batch: a cache hit, an accepted blocking job that takes the only
	// queue slot, a 422, a 400, and a 429 for the slot it took.
	batch := r.do("batch mixed", "POST", "/v1/solve/batch", `{"items":[`+
		wireSolve(s.computed, 0)+`,`+wireSolve(s.block, 0)+`,`+
		`{"spec":{"family":"NOPE","scale":1,"case":0}},{"config":{}},`+
		wireSolve(s.queued, 0)+`]}`)
	var br struct {
		Items []struct {
			JobID string `json:"job_id"`
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(batch.Body), &br); err != nil || len(br.Items) != 5 || br.Items[1].JobID == "" {
		t.Fatalf("batch: %s", batch.Body)
	}
	block := br.Items[1].JobID
	r.do("batch 400 empty", "POST", "/v1/solve/batch", `{"items":[]}`)

	select { // the blocking job holds the only executor
	case <-stub.started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking job never started")
	}
	r.do("poll running with progress", "GET", "/v1/jobs/"+block, "")
	queued := r.jobID(r.do("solve queued", "POST", "/v1/solve", wireSolve(s.queued, 0)))
	r.do("poll queued", "GET", "/v1/jobs/"+queued, "")
	r.do("solve 429", "POST", "/v1/solve", wireSolve(s.rejected, 0))
	r.do("cancel queued", "POST", "/v1/jobs/"+queued+"/cancel", "")
	r.do("cancel 404", "POST", "/v1/jobs/"+unknownJob+"/cancel", "")

	close(stub.release)
	r.waitStatus(block, "done")
	r.waitStatus(queued, "canceled")
	r.do("poll done with telemetry", "GET", "/v1/jobs/"+block, "")
	r.do("poll done computed", "GET", "/v1/jobs/"+r.jobID(computed), "")
	r.do("poll canceled", "GET", "/v1/jobs/"+queued, "")
	failed := r.jobID(r.do("solve failed", "POST", "/v1/solve", wireSolve(s.failed, 10000)))
	r.do("poll failed", "GET", "/v1/jobs/"+failed, "")
	r.do("poll 404", "GET", "/v1/jobs/"+unknownJob, "")

	r.do("list all", "GET", "/v1/jobs", "")
	r.do("list state done", "GET", "/v1/jobs?state=done", "")
	r.do("list limit offset", "GET", "/v1/jobs?limit=2&offset=1", "")
	r.do("list 400 limit", "GET", "/v1/jobs?limit=0", "")
	r.do("list 400 state", "GET", "/v1/jobs?state=bogus", "")
	r.do("problems", "GET", "/v1/problems", "")
	if health {
		r.do("healthz", "GET", "/healthz", "")
	}

	drain()
	r.do("solve 503 draining", "POST", "/v1/solve", wireSolve(s.drained, 0))
}

func drainServer(t *testing.T, srv *service.Server) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWirePins(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}

	// Gateway over two stub backends; one attempt per call, so backend
	// rejections pass straight through instead of being retried.
	gwStub := newWireStub()
	tc := newTestCluster(t, 2, func(int) service.Config { return wireServiceConfig(gwStub) },
		func(c *cluster.Config) { c.Retry = cluster.RetryPolicy{MaxAttempts: 1} })
	specs := pickWireSpecs(t, tc.gw)
	viaGateway := &wireRun{t: t, base: tc.gwTS.URL, client: client}
	viaGateway.drive(specs, gwStub, "n1.job-99999999", drainServer(t, tc.nodes[0].srv), false)

	// The same sequence against one service directly.
	directStub := newWireStub()
	direct := newTestCluster(t, 1, func(int) service.Config { return wireServiceConfig(directStub) }, nil)
	viaService := &wireRun{t: t, base: direct.nodes[0].ts.URL, client: client}
	viaService.drive(specs, directStub, "job-99999999", drainServer(t, direct.nodes[0].srv), true)

	got := map[string][]wirePin{"service": viaService.pins, "gateway": viaGateway.pins}
	if *updateWire {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wirePinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d + %d pins to %s", len(viaService.pins), len(viaGateway.pins), wirePinsPath)
		return
	}
	data, err := os.ReadFile(wirePinsPath)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	var want map[string][]wirePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin file: %v", err)
	}
	for _, target := range []string{"service", "gateway"} {
		g, w := got[target], want[target]
		if len(g) != len(w) {
			t.Errorf("%s: %d responses, pinned %d", target, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s %q drifted:\n  pinned:  %+v\n  current: %+v", target, w[i].Name, w[i], g[i])
			}
		}
	}
}
