package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/metrics"
	"rasengan/internal/problems"
)

// Config sizes the gateway. Zero values select documented defaults.
type Config struct {
	// Backends are the upstream rasengan-serve instances. IDs must be
	// unique, non-empty, and free of '.' (they prefix gateway job ids).
	Backends []*Backend
	// Seed fixes ring placement; two gateways with the same seed and
	// backend set route every spec identically.
	Seed uint64
	// VirtualNodes per backend (default DefaultVirtualNodes).
	VirtualNodes int
	// Retry is the upstream retry/backoff policy (zero = defaults).
	Retry RetryPolicy
	// HedgeDelay, when positive, arms hedged polls: a GET /v1/jobs/{id}
	// still waiting on the owner after this long fires a cache-probe at
	// the next ring replica, and the first usable answer wins. 0
	// disables hedging.
	HedgeDelay time.Duration
	// HealthInterval is the active /healthz probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default: HealthInterval).
	HealthTimeout time.Duration
	// FailThreshold consecutive bad probes eject a backend (default 2);
	// RiseThreshold consecutive good ones re-admit it (default 2).
	FailThreshold int
	RiseThreshold int
	// JobMapEntries bounds the job → backend index (default 65536).
	// Evicted entries lose only their failover stash; polls still route
	// via the id's backend prefix.
	JobMapEntries int
	// Logger receives routing and failover records; nil discards.
	Logger *slog.Logger
}

// Gateway is the cluster front end: it shards solve traffic across
// backends on a consistent-hash ring keyed by canonical spec hash,
// retries rejected calls under the policy, fails polls over when an
// owner dies, and optionally hedges slow polls to the next replica.
type Gateway struct {
	cfg      Config
	ring     *Ring
	backends map[string]*Backend
	jobs     *jobMap
	checker  *healthChecker
	client   *http.Client
	reg      *metrics.Registry
	log      *slog.Logger

	retriesTotal  metrics.Counter
	hedgesTotal   metrics.Counter
	hedgeWins     metrics.Counter
	failoversExec metrics.Counter
	failoversLost metrics.Counter
	noBackend     metrics.Counter
}

// New validates the config and builds a gateway. Call Run (or
// CheckHealth periodically) to keep ejection state current.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if cfg.JobMapEntries == 0 {
		cfg.JobMapEntries = 65536
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	byID := map[string]*Backend{}
	var ids []string
	for _, b := range cfg.Backends {
		if b.ID == "" || strings.ContainsAny(b.ID, "./ ") {
			return nil, fmt.Errorf("cluster: invalid backend id %q (must be non-empty, no '.', '/', or space)", b.ID)
		}
		if _, dup := byID[b.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend id %q", b.ID)
		}
		byID[b.ID] = b
		ids = append(ids, b.ID)
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(cfg.Seed, cfg.VirtualNodes, ids),
		backends: byID,
		jobs:     newJobMap(cfg.JobMapEntries),
		client:   &http.Client{},
		reg:      metrics.NewRegistry(),
		log:      cfg.Logger,
	}
	g.checker = newHealthChecker(g.ring, byID, cfg.HealthInterval, cfg.HealthTimeout,
		cfg.FailThreshold, cfg.RiseThreshold, func(b *Backend, up bool) {
			if up {
				g.log.Info("backend re-admitted", "backend", b.ID, "url", b.URL())
			} else {
				g.log.Warn("backend ejected", "backend", b.ID, "url", b.URL())
			}
		})

	r := g.reg
	g.retriesTotal = r.Counter("rasengan_gateway_retries_total", "Upstream attempts retried under the backoff policy.")
	g.hedgesTotal = r.Counter("rasengan_gateway_hedges_total", "Hedged polls fired at the next ring replica.")
	g.hedgeWins = r.Counter("rasengan_gateway_hedge_wins_total", "Hedged polls answered by the replica before the owner.")
	g.failoversExec = r.Counter("rasengan_gateway_failovers_total", "Jobs re-submitted to a replica after their owner became unreachable.")
	g.failoversLost = r.Counter("rasengan_gateway_failover_unavailable_total", "Polls for jobs on a dead owner with no stashed request to fail over (answered 503).")
	g.noBackend = r.Counter("rasengan_gateway_no_backend_total", "Requests rejected because no live backend was available.")
	for _, b := range cfg.Backends {
		b := b
		r.GaugeFuncWith("rasengan_gateway_backend_up", "Backend routability (1 = in the ring, 0 = ejected).", func() float64 {
			if b.Up() {
				return 1
			}
			return 0
		}, [2]string{"backend", b.ID})
		r.GaugeFuncWith("rasengan_gateway_backend_queued", "Last observed queue depth per backend.", func() float64 {
			_, q, _ := b.Stats()
			return float64(q)
		}, [2]string{"backend", b.ID})
		r.GaugeFuncWith("rasengan_gateway_backend_executing", "Last observed executing-solve count per backend.", func() float64 {
			_, _, e := b.Stats()
			return float64(e)
		}, [2]string{"backend", b.ID})
	}
	return g, nil
}

// Run probes backend health until ctx is done (the serving binary runs
// this next to the listener).
func (g *Gateway) Run(ctx context.Context) { g.checker.Run(ctx) }

// CheckHealth runs one synchronous probe pass (startup, tests).
func (g *Gateway) CheckHealth(ctx context.Context) { g.checker.CheckAll(ctx) }

// Backend returns the named backend, or nil.
func (g *Gateway) Backend(id string) *Backend { return g.backends[id] }

// Ring exposes the routing ring (tests assert placement).
func (g *Gateway) Ring() *Ring { return g.ring }

// Metrics exposes the gateway registry.
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Handler returns the routed HTTP handler — the same API surface as
// one rasengan-serve, fronting all of them.
func (g *Gateway) Handler() http.Handler {
	return api.NewHandler(api.RouteMetrics{
		Registry:     g.reg,
		DurationName: "rasengan_gateway_request_duration_seconds",
		DurationHelp: "Gateway request latency by route.",
		CountName:    "rasengan_gateway_requests_total",
		CountHelp:    "Gateway requests by route and status.",
	}, api.Handlers{
		Solve:      g.handleSolve,
		SolveBatch: g.handleBatch,
		Jobs:       g.handleJobs,
		Job:        g.handleJob,
		JobEvents:  g.handleJobEvents,
		Cancel:     g.handleCancel,
		Problems:   g.handleProblems,
		Health:     g.handleHealth,
	})
}

func drainBody(resp *http.Response) {
	if resp != nil && resp.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, api.MaxBodyBytes))
		resp.Body.Close()
	}
}

// writeNoBackend answers a request the ring cannot place: every
// backend is ejected. Retryable by construction.
func (g *Gateway) writeNoBackend(w http.ResponseWriter) {
	g.noBackend.Inc()
	api.WriteRetry(w, http.StatusServiceUnavailable, 1, "no live backend available; retry later")
}

// specHashOf parses and canonically hashes the request's spec. The int
// is the HTTP status on error.
func specHashOf(raw json.RawMessage) (string, int, error) {
	if len(raw) == 0 {
		return "", http.StatusBadRequest, errors.New("missing \"spec\"")
	}
	spec, err := problems.ParseSpec(raw)
	if err != nil {
		return "", http.StatusUnprocessableEntity, err
	}
	h, err := spec.Hash()
	if err != nil {
		return "", http.StatusUnprocessableEntity, err
	}
	return h, 0, nil
}

// stashBody rebuilds a solve request suitable for failover re-submission
// and hedging: identical spec/config/timeout (so the cache key matches on
// any node) with wait_ms stripped (polls must not block a failover hop).
func stashBody(req api.SolveRequest) []byte {
	out, err := json.Marshal(api.SolveRequest{Spec: req.Spec, Config: req.Config, TimeoutMS: req.TimeoutMS})
	if err != nil {
		return nil
	}
	return out
}

// --- upstream forwarding ---

// upstreamDo issues one upstream HTTP request. Bodies are byte slices,
// so retries can replay them.
func (g *Gateway) upstreamDo(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return g.client.Do(req)
}

// forwardKeyed sends the request to the key's ring owner under the
// retry policy. 429/503 rejections retry the same backend (honoring
// its Retry-After); transport errors advance to the next live replica,
// so a request outlives a backend dying mid-flight. Returns the
// backend that produced the final response.
func (g *Gateway) forwardKeyed(ctx context.Context, key, method, path string, body []byte, idempotent bool) (*http.Response, *Backend, error) {
	candidates := g.ring.Successors(key, len(g.backends))
	if len(candidates) == 0 {
		return nil, nil, errNoBackend
	}
	idx := 0
	var last *Backend
	resp, retries, err := g.cfg.Retry.Do(ctx, idempotent, func(try int) (*http.Response, error) {
		b := g.backends[candidates[idx]]
		last = b
		resp, err := g.upstreamDo(ctx, method, b.URL()+path, body)
		if err != nil && idx+1 < len(candidates) {
			// Transport failure: the next attempt goes to the next replica.
			idx++
		}
		return resp, err
	})
	g.retriesTotal.Add(float64(retries))
	return resp, last, err
}

// forwardTo sends the request to one specific backend under the retry
// policy (job polls, cancels: the job lives exactly there).
func (g *Gateway) forwardTo(ctx context.Context, b *Backend, method, path string, body []byte, idempotent bool) (*http.Response, error) {
	resp, retries, err := g.cfg.Retry.Do(ctx, idempotent, func(try int) (*http.Response, error) {
		return g.upstreamDo(ctx, method, b.URL()+path, body)
	})
	g.retriesTotal.Add(float64(retries))
	return resp, err
}

var errNoBackend = errors.New("cluster: no live backend")

// jobPath is the backend path of an upstream job id plus an optional
// route suffix. The id is path-escaped: it comes from a client-supplied
// gateway id, and an encoded '/' or '?' in it must stay part of the one
// {id} segment instead of becoming another route or a query.
func jobPath(upstream, suffix string) string {
	return "/v1/jobs/" + url.PathEscape(upstream) + suffix
}

// copyResponse forwards an upstream response verbatim (status,
// Retry-After, JSON body) — used for error and rejection passthrough.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, api.MaxBodyBytes))
}

// decodeJob reads and closes an upstream solve/job response body.
func decodeJob(resp *http.Response) (api.Job, error) {
	defer drainBody(resp)
	var job api.Job
	err := json.NewDecoder(io.LimitReader(resp.Body, api.MaxBodyBytes)).Decode(&job)
	return job, err
}

// relayJob answers with an upstream solve, poll or cancel response and
// closes it. Rejections and errors pass through verbatim; a 200/202 job
// view is re-sent under the gateway id that rename returns for its
// upstream id (rename may also record the job).
func relayJob(w http.ResponseWriter, resp *http.Response, rename func(upstream string) string) {
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	job, err := decodeJob(resp)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	job.JobID = rename(job.JobID)
	api.WriteJSON(w, resp.StatusCode, job)
}

// --- handlers ---

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	// The backend's strict decoder, so the gateway rejects exactly what a
	// backend would; the original bytes are what gets forwarded.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes))
	var req api.SolveRequest
	if err == nil {
		err = api.Decode(bytes.NewReader(raw), &req)
	}
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	hash, code, err := specHashOf(req.Spec)
	if err != nil {
		api.WriteError(w, code, "%v", err)
		return
	}
	resp, backend, err := g.forwardKeyed(r.Context(), hash, http.MethodPost, "/v1/solve", raw, true)
	if err != nil {
		if errors.Is(err, errNoBackend) {
			g.writeNoBackend(w)
			return
		}
		api.WriteRetry(w, http.StatusBadGateway, 1, "backend unreachable: %v", err)
		return
	}
	relayJob(w, resp, func(upstream string) string {
		id := gatewayJobID(backend.ID, upstream)
		g.jobs.put(id, &jobEntry{backend: backend.ID, upstream: upstream, specHash: hash, request: stashBody(req)})
		return id
	})
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := api.Decode(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		api.WriteError(w, http.StatusBadRequest, "batch has no items")
		return
	}

	// Shard items by ring owner, preserving each item's original index;
	// per-backend sub-batches keep the one-fsync group-commit property
	// on every node they land on.
	type shardItem struct {
		idx  int
		req  api.SolveRequest
		hash string
	}
	items := make([]api.BatchItem, len(req.Items))
	shards := map[string][]shardItem{}
	for i, item := range req.Items {
		hash, code, err := specHashOf(item.Spec)
		if err != nil {
			items[i] = api.BatchItem{Code: code, Error: err.Error()}
			continue
		}
		owner, ok := g.ring.Lookup(hash)
		if !ok {
			g.noBackend.Inc()
			items[i] = api.BatchItem{Code: http.StatusServiceUnavailable, Error: "no live backend available", RetryAfterS: 1}
			continue
		}
		shards[owner] = append(shards[owner], shardItem{idx: i, req: item, hash: hash})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards items and the job map ordering
	for owner, shard := range shards {
		wg.Add(1)
		go func(owner string, shard []shardItem) {
			defer wg.Done()
			sub := api.BatchRequest{Items: make([]api.SolveRequest, len(shard))}
			for i, it := range shard {
				sub.Items[i] = it.req
			}
			subRaw, _ := json.Marshal(sub)
			b := g.backends[owner]
			resp, err := g.forwardTo(r.Context(), b, http.MethodPost, "/v1/solve/batch", subRaw, true)
			if err != nil {
				mu.Lock()
				for _, it := range shard {
					items[it.idx] = api.BatchItem{Code: http.StatusServiceUnavailable,
						Error: "backend unreachable: " + err.Error(), RetryAfterS: 1}
				}
				mu.Unlock()
				return
			}
			defer drainBody(resp)
			var subResp api.BatchResponse
			if resp.StatusCode != http.StatusOK ||
				json.NewDecoder(io.LimitReader(resp.Body, api.MaxBodyBytes)).Decode(&subResp) != nil ||
				len(subResp.Items) != len(shard) {
				mu.Lock()
				for _, it := range shard {
					items[it.idx] = api.BatchItem{Code: http.StatusBadGateway,
						Error: fmt.Sprintf("bad backend response (status %d)", resp.StatusCode)}
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			for i, it := range shard {
				out := subResp.Items[i]
				if out.JobID != "" {
					id := gatewayJobID(owner, out.JobID)
					g.jobs.put(id, &jobEntry{backend: owner, upstream: out.JobID,
						specHash: it.hash, request: stashBody(it.req)})
					out.JobID = id
				}
				items[it.idx] = out
			}
			mu.Unlock()
		}(owner, shard)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Items: items})
}

// resolveJob maps a gateway job id to its entry, reconstructing one
// from the id prefix when the map has never seen (or has evicted) it.
func (g *Gateway) resolveJob(id string) (jobEntry, bool) {
	if e, ok := g.jobs.get(id); ok {
		return e, true
	}
	backend, upstream, ok := splitJobID(id)
	if !ok {
		return jobEntry{}, false
	}
	if _, known := g.backends[backend]; !known {
		return jobEntry{}, false
	}
	return jobEntry{backend: backend, upstream: upstream}, true
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]

	if !owner.Up() {
		g.failoverPoll(w, r, id, entry)
		return
	}

	resp, err := g.pollOwner(r.Context(), owner, entry)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing to answer, nothing to fail over
		}
		// The owner died mid-poll (health checking may not have ejected it
		// yet): same failover path as a known-dead owner.
		g.failoverPoll(w, r, id, entry)
		return
	}
	relayJob(w, resp, func(string) string { return id })
}

// pollOwner issues the upstream job GET, optionally racing it against a
// hedge at the next ring replica once HedgeDelay elapses. The hedge is
// a cache probe: the stashed solve request re-posted with no wait —
// content addressing means a replica that has the payload answers an
// identical-bytes result instantly, and one that does not just starts
// (or coalesces onto) a speculative duplicate whose later polls hit its
// cache. Only a terminal done answer wins the race; anything else is
// discarded and the owner's response stands.
func (g *Gateway) pollOwner(ctx context.Context, owner *Backend, entry jobEntry) (*http.Response, error) {
	path := jobPath(entry.upstream, "")
	if g.cfg.HedgeDelay <= 0 || entry.request == nil || entry.specHash == "" {
		return g.forwardTo(ctx, owner, http.MethodGet, path, nil, true)
	}

	type outcome struct {
		resp *http.Response
		err  error
	}
	// Primary and hedge each get their own cancel: the loser is cancelled
	// immediately, the winner only when its body is closed (cancelling a
	// request context kills its in-flight body read).
	pctx, pcancel := context.WithCancel(ctx)
	hctx, hcancel := context.WithCancel(ctx)
	primary := make(chan outcome, 1)
	go func() {
		resp, err := g.forwardTo(pctx, owner, http.MethodGet, path, nil, true)
		primary <- outcome{resp, err}
	}()
	winPrimary := func(o outcome) (*http.Response, error) {
		hcancel()
		if o.resp != nil {
			o.resp.Body = cancelOnClose{o.resp.Body, pcancel}
		} else {
			pcancel()
		}
		return o.resp, o.err
	}

	timer := time.NewTimer(g.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case o := <-primary:
		return winPrimary(o)
	case <-timer.C:
	}

	// Owner is slow: fire the hedge at the next live replica.
	replicas := g.ring.Successors(entry.specHash, 2)
	var target *Backend
	for _, id := range replicas {
		if id != owner.ID {
			target = g.backends[id]
			break
		}
	}
	if target == nil {
		hcancel()
		return winPrimary(<-primary)
	}
	g.hedgesTotal.Inc()
	hedge := make(chan *http.Response, 1)
	go func() {
		resp, err := g.upstreamDo(hctx, http.MethodPost, target.URL()+"/v1/solve", entry.request)
		if err != nil {
			hedge <- nil
			return
		}
		if resp.StatusCode != http.StatusOK {
			drainBody(resp)
			hedge <- nil
			return
		}
		hedge <- resp
	}()

	for {
		select {
		case o := <-primary:
			go func() { // discard the hedge whenever it lands
				if resp := <-hedge; resp != nil {
					drainBody(resp)
				}
				hcancel()
			}()
			return winPrimary(o)
		case resp := <-hedge:
			if resp == nil {
				hcancel()
				continue // hedge lost; keep waiting for the owner
			}
			// Peek: only a terminal done answer may win (a 200 from
			// POST /v1/solve with wait_ms=0 can still be a queued view).
			job, err := decodeJob(resp)
			hcancel() // body fully consumed by the decode
			if err != nil || job.Status != api.StatusDone {
				continue
			}
			g.hedgeWins.Inc()
			pcancel()
			go func() {
				if o := <-primary; o.resp != nil {
					drainBody(o.resp)
				}
			}()
			return rebuildResponse(resp.StatusCode, job), nil
		}
	}
}

// cancelOnClose releases the winner's request context once its body is
// fully consumed and closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// rebuildResponse wraps an already-decoded job back into an
// *http.Response so the hedge path slots into the normal decode flow.
func rebuildResponse(code int, job api.Job) *http.Response {
	body, _ := json.Marshal(job)
	return &http.Response{
		StatusCode: code,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
	}
}

// failoverPoll answers a poll whose owner is unreachable. With a
// stashed request the job is re-submitted to the key's current ring
// owner — deterministic, content-addressed solves make the replayed
// job's payload byte-identical — and the gateway id re-points there.
// Without a stash the client gets a clean retryable 503.
func (g *Gateway) failoverPoll(w http.ResponseWriter, r *http.Request, id string, entry jobEntry) {
	if entry.request == nil || entry.specHash == "" {
		g.failoversLost.Inc()
		api.WriteRetry(w, http.StatusServiceUnavailable, 1,
			"backend %q unavailable and job %q has no failover record; resubmit the spec or retry later",
			entry.backend, id)
		return
	}
	resp, backend, err := g.forwardKeyed(r.Context(), entry.specHash, http.MethodPost, "/v1/solve", entry.request, true)
	if err != nil {
		if errors.Is(err, errNoBackend) {
			g.writeNoBackend(w)
			return
		}
		api.WriteRetry(w, http.StatusBadGateway, 1, "failover failed: %v", err)
		return
	}
	relayJob(w, resp, func(upstream string) string {
		g.failoversExec.Inc()
		g.log.Warn("job failed over", "job_id", id, "from", entry.backend, "to", backend.ID,
			"upstream_id", upstream, "spec_hash", entry.specHash)
		// Re-point the stable gateway id at the job's new home; later polls
		// go straight there.
		g.jobs.put(id, &jobEntry{backend: backend.ID, upstream: upstream,
			specHash: entry.specHash, request: entry.request})
		return id
	})
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]
	resp, err := g.forwardTo(r.Context(), owner, http.MethodPost, jobPath(entry.upstream, "/cancel"), nil, true)
	if err != nil {
		api.WriteRetry(w, http.StatusBadGateway, 1, "backend unreachable: %v", err)
		return
	}
	relayJob(w, resp, func(string) string { return id })
}

// handleJobEvents proxies the owner's SSE stream byte-for-byte,
// flushing each chunk so per-iteration progress stays live through the
// extra hop. If the owner dies mid-stream the stream ends cleanly (a
// terminating comment, then EOF); the client's reconnect resolves
// against the post-failover mapping.
func (g *Gateway) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := g.resolveJob(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	owner := g.backends[entry.backend]
	resp, err := g.upstreamDo(r.Context(), http.MethodGet, owner.URL()+jobPath(entry.upstream, "/events"), nil)
	if err != nil {
		api.WriteRetry(w, http.StatusServiceUnavailable, 1, "backend unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		copyResponse(w, resp)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && r.Context().Err() == nil {
				// Upstream died mid-stream; tell the client before EOF.
				_, _ = fmt.Fprint(w, ": upstream lost; reconnect\n\n")
				_ = rc.Flush()
			}
			return
		}
	}
}

// handleJobs fans the listing out to every live backend and merges the
// pages in backend order, prefixing each job id. Offset/limit forward
// per backend, so a page is "up to limit jobs from each backend" — an
// approximation documented in the README; exact global pagination
// would need a cluster-wide sequence the backends don't share.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	query := ""
	if r.URL.RawQuery != "" {
		query = "?" + r.URL.RawQuery
	}
	type result struct {
		id   string
		list api.JobList
		err  error
		code int
		body []byte
	}
	members := g.ring.Members()
	results := make([]result, len(members))
	var wg sync.WaitGroup
	for i, bid := range members {
		b := g.backends[bid]
		if !b.Up() {
			results[i] = result{id: bid, err: errNoBackend}
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			res := result{id: b.ID}
			resp, err := g.forwardTo(r.Context(), b, http.MethodGet, "/v1/jobs"+query, nil, true)
			if err != nil {
				res.err = err
			} else {
				defer drainBody(resp)
				res.code = resp.StatusCode
				res.body, _ = io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes))
				if resp.StatusCode == http.StatusOK {
					res.err = json.Unmarshal(res.body, &res.list)
				}
			}
			results[i] = res
		}(i, b)
	}
	wg.Wait()

	merged := api.JobList{Jobs: []api.Job{}}
	for _, res := range results {
		if res.err != nil {
			continue // dead backends contribute nothing to the listing
		}
		if res.code != http.StatusOK {
			// A backend rejected the query (bad state/limit): its answer is
			// authoritative for the whole request.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.code)
			_, _ = w.Write(res.body)
			return
		}
		for _, job := range res.list.Jobs {
			job.JobID = gatewayJobID(res.id, job.JobID)
			merged.Jobs = append(merged.Jobs, job)
		}
		merged.Total += res.list.Total
		merged.Offset = res.list.Offset
		merged.Limit = res.list.Limit
	}
	api.WriteJSON(w, http.StatusOK, merged)
}

func (g *Gateway) handleProblems(w http.ResponseWriter, r *http.Request) {
	for _, id := range g.ring.Members() {
		b := g.backends[id]
		if !b.Up() {
			continue
		}
		resp, err := g.forwardTo(r.Context(), b, http.MethodGet, "/v1/problems", nil, true)
		if err != nil {
			continue
		}
		defer drainBody(resp)
		copyResponse(w, resp)
		return
	}
	g.writeNoBackend(w)
}

// handleHealth reports the gateway's own liveness plus the per-backend
// view its checker holds. Always 200: a gateway with zero live
// backends is still alive, just degraded (state says so).
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	type backendView struct {
		Up        bool   `json:"up"`
		State     string `json:"state"`
		Queued    int    `json:"queued"`
		Executing int    `json:"executing"`
	}
	views := map[string]backendView{}
	up := 0
	for id, b := range g.backends {
		state, queued, executing := b.Stats()
		v := backendView{Up: b.Up(), State: state, Queued: queued, Executing: executing}
		if v.Up {
			up++
		}
		views[id] = v
	}
	state := "ok"
	switch {
	case up == 0:
		state = "down"
	case up < len(g.backends):
		state = "degraded"
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"state":    state,
		"backends": views,
	})
}
