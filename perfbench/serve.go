package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rasengan"
	"rasengan/internal/cluster"
	"rasengan/internal/problems"
	"rasengan/internal/service"
	"rasengan/internal/store"
)

// serve-mixed offered load. Two lanes, one connection each: the read
// lane carries cache hits, the write lane cold solves and batches, so a
// hit never waits behind a solve in the generator, only in the system.
//
// The rates are an assumption, not taken from any production trace: a
// read-mostly mix (about 1.5% of requests write) at a fixed share of the
// system's capacity. Each run records that share, offered rate over the
// capacity it measured (see README.md).
const (
	hitRate   = 400.0 // cache hits per second (read lane)
	coldRate  = 6.0   // cold single solves per second (write lane)
	batchRate = 0.25  // batch submits per second (write lane)
	batchSize = 4     // cold items per batch
	// mixCopies sizes one saturation round: this many copies of the mix
	// (400 hits, 6 cold, a batch every other copy), shuffled.
	mixCopies = 2
	// capacityRounds is how many saturation rounds a run makes; capacity
	// is their median rate.
	capacityRounds = 15
	// coldRefs is how many cold requests refs.json pins; a run at the
	// default length uses fewer. Single cold solves take indices from 0,
	// batch items from batchBase, so the single solves, whose ARG is
	// reported, are the same requests under every workload seed.
	coldRefs  = 1200
	batchBase = 1000
	// hotSeed is the solver seed of every hot request.
	hotSeed = 7
	// historyJobs is the size of the pre-populated job history.
	historyJobs = 300
	// lagLimitMS fails a run whose generator woke this late at p99: its
	// arrivals no longer follow the schedule, so its latencies would
	// measure the generator, not the system. Wake-ups run late whenever the
	// solves hold both processors, until the Go scheduler preempts them
	// (a 10 ms quantum, polled at up to 10 ms), and longer when the host
	// takes the processors away. On a 2-vCPU machine p99 read 2.5–6.5 ms
	// over dozens of runs and once 10.2 ms; single wake-ups reach 15–36 ms.
	// The limit sits well above those, so it fails a generator that fell
	// behind, not one that met scheduler jitter.
	lagLimitMS = 50.0
	// hitProbeSpan is how long the sequential hit probe behind serve-mixed's
	// latency_p50_ms runs: about 15 windows of hitWindow hits.
	hitProbeSpan = 5 * time.Second
	// minCompleted fails a run that completed fewer requests per second
	// than this share of the offered rate: the system fell behind the
	// open loop.
	minCompleted = 0.98
)

const (
	classHit = iota
	classCold
	classBatch
)

var (
	// hotFamilies × scales 1–2 × cases 0–2 are the cached generator specs.
	hotFamilies = []string{"FLP", "KPP", "JSP", "SCP", "GCP"}
	// inlineLabels × cases 0–1 are the cached explicit-problem specs, a
	// quarter of the hot set: they take the canonicalize-and-hash path.
	inlineLabels = []string{"F1", "K1", "J1", "S1", "G1"}
	// coldLabels are the instances of unseen solves; one scale keeps their
	// costs within 2× of each other, so no percentile straddles two kinds.
	coldLabels = []string{"F3", "K3", "S3", "G3"}
)

// serveReq is one request of the serve-mixed mix.
type serveReq struct {
	key  string          // payload check key
	spec json.RawMessage // the request's spec
	seed int64           // the request's solver seed
	inst *instance       // cold requests: instance and golden optimum
}

func (r serveReq) body(waitMS int) []byte {
	b, _ := json.Marshal(map[string]any{ // cannot fail: raw JSON and ints
		"spec":    r.spec,
		"config":  map[string]int64{"seed": r.seed},
		"wait_ms": waitMS,
	})
	return b
}

// hotRequests returns the cached request set; it does not depend on the
// workload seed.
func hotRequests() ([]serveReq, error) {
	var out []serveReq
	for _, f := range hotFamilies {
		for scale := 1; scale <= 2; scale++ {
			for c := 0; c < 3; c++ {
				spec, _ := json.Marshal(problems.Spec{Family: f, Scale: scale, Case: c})
				out = append(out, serveReq{key: fmt.Sprintf("hot/%s%d#%d", f[:1], scale, c), spec: spec, seed: hotSeed})
			}
		}
	}
	for _, label := range inlineLabels {
		b, err := problems.ByLabel(label)
		if err != nil {
			return nil, err
		}
		for c := 0; c < 2; c++ {
			pj, err := problems.ToJSON(b.Generate(c))
			if err != nil {
				return nil, err
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, pj); err != nil {
				return nil, err
			}
			spec, _ := json.Marshal(map[string]json.RawMessage{"problem": compact.Bytes()})
			out = append(out, serveReq{key: fmt.Sprintf("inline/%s#%d", label, c), spec: spec, seed: hotSeed})
		}
	}
	return out, nil
}

// historyRequests returns the finished jobs each set-up replays besides
// the hot set: cheap scale-1 solves that make journal replay and cache
// rehydration a real restart cost. They are not requested again.
func historyRequests() []serveReq {
	out := make([]serveReq, historyJobs)
	for i := range out {
		f := hotFamilies[i%len(hotFamilies)]
		spec, _ := json.Marshal(problems.Spec{Family: f, Scale: 1})
		out[i] = serveReq{key: fmt.Sprintf("history/%s1/seed=%d", f[:1], 1000+i), spec: spec, seed: int64(1000 + i)}
	}
	return out
}

// coldRequest returns cold request k: an unseen solver seed on one of the
// cold instances. The sequence does not depend on the workload seed,
// which only sets when each request is sent.
func coldRequest(insts []*instance, k int) serveReq {
	in := insts[k%len(insts)]
	s := poolSeed(100, uint64(k))
	spec, _ := json.Marshal(in.spec)
	return serveReq{key: fmt.Sprintf("cold/%s/seed=%d", in.label, s), spec: spec, seed: s, inst: in}
}

// webServer is one loopback HTTP listener.
type webServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*webServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &webServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		_ = ws.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return ws, nil
}

func (w *webServer) close() {
	_ = w.hs.Close() // the only error is the listener's close error
	<-w.done
}

// deployment is the production topology in one process: a gateway over
// two journaled backends, all on loopback HTTP.
type deployment struct {
	srvs  []*service.Server
	webs  []*webServer
	gw    *cluster.Gateway
	gwWeb *webServer

	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// openDeployment opens one backend per data directory (replaying its
// journal), then the gateway. wrap, when non-nil, wraps each handler.
func openDeployment(dirs []string, wrap func(name string, h http.Handler) http.Handler) (*deployment, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	d := &deployment{}
	var backends []*cluster.Backend
	for i, dir := range dirs {
		srv, err := service.Open(service.Config{DataDir: dir})
		if err != nil {
			d.close()
			return nil, err
		}
		d.srvs = append(d.srvs, srv)
		id := fmt.Sprintf("n%d", i+1)
		web, err := serveHTTP(wrap(id, srv.Handler()))
		if err != nil {
			d.close()
			return nil, err
		}
		d.webs = append(d.webs, web)
		backends = append(backends, cluster.NewBackend(id, web.url))
	}
	gw, err := cluster.New(cluster.Config{Backends: backends, Seed: 1})
	if err != nil {
		d.close()
		return nil, err
	}
	d.gw = gw
	if d.gwWeb, err = serveHTTP(wrap("gateway", gw.Handler())); err != nil {
		d.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopHealth, d.healthDone = cancel, make(chan struct{})
	gw.CheckHealth(ctx)
	go func() {
		defer close(d.healthDone)
		gw.Run(ctx)
	}()
	return d, nil
}

// close stops the gateway, then drains and closes every backend.
func (d *deployment) close() {
	if d.stopHealth != nil {
		d.stopHealth()
		<-d.healthDone
	}
	if d.gwWeb != nil {
		d.gwWeb.close()
	}
	for _, w := range d.webs {
		w.close()
	}
	for _, s := range d.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.Drain(ctx) // nothing is in flight once the listeners are closed
		cancel()
		_ = s.Close() // journal close errors would surface on the next open
	}
	// The gateway's upstream client uses the default transport; drop its
	// connections to the listeners that just closed.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// envelope is the part of a solve or job response the client checks.
type envelope struct {
	Code   int             `json:"code"` // batch items only
	JobID  string          `json:"job_id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// handlerTimer wraps a handler and, while on, times every request,
// split by whether the response was a cache hit.
type handlerTimer struct {
	h  http.Handler
	on *atomic.Bool

	mu         sync.Mutex
	hit, solve []float64 // POST /v1/solve answered from cache / not
	requests   int
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.URL.Path == "/healthz" {
		t.h.ServeHTTP(w, r)
		return
	}
	sw := &sniffWriter{ResponseWriter: w}
	t0 := time.Now()
	t.h.ServeHTTP(sw, r)
	d := ms(time.Since(t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	if r.URL.Path == "/v1/solve" {
		if bytes.Contains(sw.head, []byte(`"cached":true`)) {
			t.hit = append(t.hit, d)
		} else {
			t.solve = append(t.solve, d)
		}
	}
}

// sniffWriter keeps the first bytes of a response, enough to see the
// envelope's "cached" field.
type sniffWriter struct {
	http.ResponseWriter
	head []byte
}

func (s *sniffWriter) Write(b []byte) (int, error) {
	if n := 96 - len(s.head); n > 0 {
		s.head = append(s.head, b[:min(n, len(b))]...)
	}
	return s.ResponseWriter.Write(b)
}

// serveRun is the state of one serve-mixed run.
type serveRun struct {
	e      *env
	c      *checker
	client *http.Client
	hot    []serveReq
	colds  []*instance
	coldK  atomic.Int64 // next single cold index
	batchK atomic.Int64 // next batch item index, from batchBase
	d      *deployment

	mu      sync.Mutex
	pending []pendingJob // batch jobs not yet collected

	// traced-phase bookkeeping
	tracing  bool
	affinity [2]int // [matches, responses]
	payloads []float64
	owners   sync.Map // payload check key → ring owner of its spec
}

// mixStats is what one phase of the mix measured.
type mixStats struct {
	phase
	lat  [3][]float64 // per class, ms from due time
	lags []float64    // generator wake-up lateness, ms
	args []float64

	attempted int     // requests sent; phase.ops counts those that succeeded
	windows   []phase // consecutive rateWindow stretches of the phase
}

// rateWindow is the length of one measurement window of the open loop's
// rate metrics.
const rateWindow = 3 * time.Second

// reply is one HTTP response as the client saw it.
type reply struct {
	code int
	data []byte
	at   time.Time // when the body was fully read: the request's end
}

func (s *serveRun) post(path string, body []byte) (reply, error) {
	return s.read(s.client.Post(s.d.gwWeb.url+path, "application/json", bytes.NewReader(body)))
}

func (s *serveRun) get(path string) (reply, error) {
	return s.read(s.client.Get(s.d.gwWeb.url + path))
}

func (s *serveRun) read(resp *http.Response, err error) (reply, error) {
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, data: data, at: time.Now()}, err
}

// accept checks one terminal response for req and returns its payload.
func (s *serveRun) accept(req serveReq, code int, env envelope) ([]byte, bool) {
	if code != http.StatusOK || env.Status != "done" || len(env.Result) == 0 {
		s.c.fail("%s: HTTP %d status %q %s", req.key, code, env.Status, env.Error)
		return nil, false
	}
	if !s.c.check(req.key, env.Result) {
		return nil, false
	}
	if s.tracing {
		s.observe(req, env)
	}
	return env.Result, true
}

// observe records the traced phase's per-response layer figures: the
// payload size, and whether the ring owner of the spec answered.
func (s *serveRun) observe(req serveReq, env envelope) {
	match := 0
	if strings.HasPrefix(env.JobID, s.owner(req)+".") {
		match = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.affinity[0] += match
	s.affinity[1]++
	s.payloads = append(s.payloads, float64(len(env.Result)))
}

// owner returns the ring owner of req's spec, computed once per key, so
// that the traced phase does not parse and hash every hit's spec inside
// the generator's lanes.
func (s *serveRun) owner(req serveReq) string {
	if o, ok := s.owners.Load(req.key); ok {
		return o.(string)
	}
	owner := ""
	if spec, err := problems.ParseSpec(req.spec); err == nil {
		if h, err := spec.Hash(); err == nil {
			owner, _ = s.d.gw.Ring().Lookup(h)
		}
	}
	s.owners.Store(req.key, owner)
	return owner
}

// solveOnce posts one solve and checks the answer. The time is when the
// answer arrived; it is zero when the request failed.
func (s *serveRun) solveOnce(req serveReq, waitMS int) ([]byte, time.Time) {
	r, err := s.post("/v1/solve", req.body(waitMS))
	if err != nil {
		s.c.fail("%s: %v", req.key, err)
		return nil, time.Time{}
	}
	var env envelope
	if err := json.Unmarshal(r.data, &env); err != nil {
		s.c.fail("%s: HTTP %d: %v", req.key, r.code, err)
		return nil, time.Time{}
	}
	payload, ok := s.accept(req, r.code, env)
	if !ok {
		return nil, time.Time{}
	}
	return payload, r.at
}

// cold sends the next unseen solve and returns its ARG and end time.
func (s *serveRun) cold() (float64, time.Time) {
	req := coldRequest(s.colds, int(s.coldK.Add(1)-1))
	payload, at := s.solveOnce(req, 60000)
	if at.IsZero() {
		return 0, at
	}
	var pl struct {
		Expectation float64 `json:"expectation"`
	}
	if err := json.Unmarshal(payload, &pl); err != nil {
		s.c.fail("%s: payload: %v", req.key, err)
		return 0, time.Time{}
	}
	return rasengan.ARG(req.inst.eOpt, pl.Expectation), at
}

// batch submits batchSize unseen solves in one request (one journal
// group commit per backend) and returns when they were accepted. Like a
// client that submits now and collects later, it leaves the jobs running
// and queues them for collect.
func (s *serveRun) batch() time.Time {
	reqs := make([]serveReq, batchSize)
	for i := range reqs {
		reqs[i] = coldRequest(s.colds, batchBase+int(s.batchK.Add(1)-1))
	}
	items, at := s.submit(reqs)
	if at.IsZero() {
		return at
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, it := range items {
		s.pending = append(s.pending, pendingJob{req: reqs[i], it: it, at: at})
	}
	return at
}

// pendingJob is a batch item accepted but not yet seen done.
type pendingJob struct {
	req serveReq
	it  envelope
	at  time.Time
}

// pollPending polls the pending batch jobs while the lane is idle, until
// shortly before until, checking each finished job. Jobs must be
// collected soon after they finish: the backend keeps only its most
// recent terminal jobs, and every cache hit adds one.
func (s *serveRun) pollPending(until time.Time) {
	for time.Until(until) > 2*time.Millisecond {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.mu.Unlock()
		r, err := s.get("/v1/jobs/" + j.it.JobID)
		if err != nil || (r.code != http.StatusOK && r.code != http.StatusAccepted) {
			s.c.fail("%s: poll HTTP %d: %v", j.req.key, r.code, err)
			s.dropPending()
			continue
		}
		var env envelope
		if err := json.Unmarshal(r.data, &env); err != nil {
			s.c.fail("%s: poll: %v", j.req.key, err)
			s.dropPending()
			continue
		}
		if env.Status == "queued" || env.Status == "running" {
			time.Sleep(time.Millisecond)
			continue
		}
		s.accept(j.req, http.StatusOK, env)
		s.dropPending()
	}
}

func (s *serveRun) dropPending() {
	s.mu.Lock()
	s.pending = s.pending[1:]
	s.mu.Unlock()
}

// collect polls every pending batch job to completion and checks its
// payload.
func (s *serveRun) collect() {
	s.mu.Lock()
	jobs := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, j := range jobs {
		s.await(j.req, j.it, j.at)
	}
}

// submitAndWait sends reqs as one batch and waits for every job.
func (s *serveRun) submitAndWait(reqs []serveReq) bool {
	items, at := s.submit(reqs)
	ok := !at.IsZero()
	for i := 0; ok && i < len(items); i++ {
		ok = !s.await(reqs[i], items[i], at).IsZero()
	}
	return ok
}

// submit sends reqs as one batch and returns the per-item answers and
// when they arrived, zero on failure.
func (s *serveRun) submit(reqs []serveReq) ([]envelope, time.Time) {
	items := make([]json.RawMessage, len(reqs))
	for i, req := range reqs {
		items[i] = req.body(0)
	}
	body, _ := json.Marshal(map[string]any{"items": items})
	r, err := s.post("/v1/solve/batch", body)
	if err != nil || r.code != http.StatusOK {
		s.c.fail("batch: HTTP %d: %v", r.code, err)
		return nil, time.Time{}
	}
	var resp struct{ Items []envelope }
	if err := json.Unmarshal(r.data, &resp); err != nil || len(resp.Items) != len(reqs) {
		s.c.fail("batch: bad response: %v", err)
		return nil, time.Time{}
	}
	return resp.Items, r.at
}

// await polls a submitted job through the gateway until it is terminal
// and returns when it was seen done (at, if the submit answer was final).
func (s *serveRun) await(req serveReq, it envelope, at time.Time) time.Time {
	if it.Code != http.StatusOK && it.Code != http.StatusAccepted {
		s.c.fail("%s: batch item HTTP %d %s", req.key, it.Code, it.Error)
		return time.Time{}
	}
	deadline := time.Now().Add(60 * time.Second)
	for it.Status != "done" && it.Status != "failed" && it.Status != "canceled" {
		if time.Now().After(deadline) {
			s.c.fail("%s: job %s not done after 60s", req.key, it.JobID)
			return time.Time{}
		}
		time.Sleep(time.Millisecond)
		r, err := s.get("/v1/jobs/" + it.JobID)
		if err != nil || (r.code != http.StatusOK && r.code != http.StatusAccepted) {
			s.c.fail("%s: poll HTTP %d: %v", req.key, r.code, err)
			return time.Time{}
		}
		var env envelope
		if err := json.Unmarshal(r.data, &env); err != nil {
			s.c.fail("%s: poll: %v", req.key, err)
			return time.Time{}
		}
		it, at = env, r.at
	}
	if _, ok := s.accept(req, http.StatusOK, it); !ok {
		return time.Time{}
	}
	return at
}

// openLoop offers the mix for span on a seeded Poisson schedule per
// class. stream separates the schedules of phases within one run.
func (s *serveRun) openLoop(span time.Duration, stream int64) mixStats {
	base := s.e.seed*1000 + stream*10
	reads := poissonSchedule(base+1, hitRate, span, classHit)
	writes := mergeSchedules(
		poissonSchedule(base+2, coldRate, span, classCold),
		poissonSchedule(base+3, batchRate, span, classBatch))
	pick := rand.New(rand.NewSource(base + 4))
	hotIdx := make([]int, len(reads))
	for i := range hotIdx {
		hotIdx[i] = pick.Intn(len(s.hot))
	}

	var st mixStats
	var mu sync.Mutex
	var completed atomic.Int64
	// The write lane, which submits the batches, also collects them.
	runLane := func(start time.Time, sched []arrival, collects bool) {
		var lags []float64
		var lat [3][]float64
		var args []float64
		for i, a := range sched {
			// Latency runs from the due time, so time spent queued behind
			// an earlier request counts. When the lane was idle, it runs
			// from the wake-up instead: the sleep's overshoot is the
			// generator's error, reported as lag.
			due := start.Add(a.due)
			if collects {
				s.pollPending(due)
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				lags = append(lags, msSince(due))
				due = time.Now()
			}
			var end time.Time
			switch a.class {
			case classHit:
				_, end = s.solveOnce(s.hot[hotIdx[i]], 0)
			case classCold:
				var arg float64
				if arg, end = s.cold(); !end.IsZero() {
					args = append(args, arg)
				}
			case classBatch:
				end = s.batch()
			}
			if !end.IsZero() {
				lat[a.class] = append(lat[a.class], ms(end.Sub(due)))
				completed.Add(1)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		st.lags = append(st.lags, lags...)
		for c := range lat {
			st.lat[c] = append(st.lat[c], lat[c]...)
			st.ops += len(lat[c])
		}
		st.args = append(st.args, args...)
	}

	st.start = sampleUsage()
	start := st.start.wall.Add(5 * time.Millisecond)
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() { // cuts the phase into windows; owns st.windows until sampled closes
		defer close(sampled)
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		w := phase{start: st.start}
		var before int64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				w.end = sampleUsage()
				now := completed.Load()
				w.ops, before = int(now-before), now
				st.windows = append(st.windows, w)
				w.start = w.end
			}
		}
	}()
	var wg sync.WaitGroup
	for i, sched := range [][]arrival{reads, writes} {
		wg.Add(1)
		go func(sched []arrival, collects bool) {
			defer wg.Done()
			runLane(start, sched, collects)
		}(sched, i == 1)
	}
	wg.Wait()
	close(stop)
	<-sampled
	st.end = sampleUsage()
	st.attempted = len(reads) + len(writes)
	s.collect()
	return st
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// hitProbe sends cache hits through the gateway back to back from one
// caller for span, with nothing else in flight, and returns their
// latencies and how many it sent. This is the hit path's cost: unlike the open loop's hits,
// each of which arrives at an idle system, it does not wait for the
// machine's processors to wake, a wait that tracks the host's load more
// than the program's.
func (s *serveRun) hitProbe(span time.Duration) ([]float64, int) {
	var lat []float64
	i := 0
	for t0 := time.Now(); time.Since(t0) < span; i++ {
		sent := time.Now()
		if _, end := s.solveOnce(s.hot[i%len(s.hot)], 0); !end.IsZero() {
			lat = append(lat, ms(end.Sub(sent)))
		}
	}
	return lat, i
}

// saturationMix returns one saturation round: mixCopies copies of the
// mix in a seeded order.
func (s *serveRun) saturationMix() []int {
	var classes []int
	for r := 0; r < mixCopies; r++ {
		for i := 0; i < int(hitRate); i++ {
			classes = append(classes, classHit)
		}
		for i := 0; i < int(coldRate); i++ {
			classes = append(classes, classCold)
		}
		if r%2 == 0 {
			classes = append(classes, classBatch)
		}
	}
	rng := rand.New(rand.NewSource(s.e.seed*1000 + 999))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	return classes
}

// saturate sends classes from one closed-loop caller per CPU, then
// collects the batch jobs it submitted.
func (s *serveRun) saturate(classes []int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(classes) {
					return
				}
				switch classes[i] {
				case classHit:
					s.solveOnce(s.hot[i%len(s.hot)], 0)
				case classCold:
					s.cold()
				case classBatch:
					s.batch()
				}
			}
		}()
	}
	wg.Wait()
	s.collect()
}

func runServeMixed(e *env, c *checker) (*outcome, error) {
	o := newOutcome()
	hot, err := hotRequests()
	if err != nil {
		return nil, err
	}
	colds, err := loadInstances(e.root, coldLabels)
	if err != nil {
		return nil, err
	}
	// The open loop holds two connections, one per lane; the saturation
	// phase one per CPU.
	conns := max(runtime.NumCPU(), 2)
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	s := &serveRun{e: e, c: c, hot: hot, colds: colds,
		client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
	dirs := []string{filepath.Join(e.work, "n1"), filepath.Join(e.work, "n2")}

	// Pre-populate: solve the hot set and a job history so both journals
	// hold them, then reopen once so every timed reopen replays the same
	// compacted state.
	if s.d, err = openDeployment(dirs, nil); err != nil {
		return nil, err
	}
	// The hot set goes last: replay refills each cache in journal order,
	// so the hot entries are the most recently used after a restart.
	history := historyRequests()
	for i := 0; i < len(history); i += 16 {
		if !s.submitAndWait(history[i:min(i+16, len(history))]) {
			s.d.close()
			return nil, fmt.Errorf("pre-populate history failed")
		}
	}
	for _, req := range hot {
		if _, at := s.solveOnce(req, 60000); at.IsZero() {
			s.d.close()
			return nil, fmt.Errorf("pre-populate %s failed", req.key)
		}
	}
	s.d.close()
	if s.d, err = openDeployment(dirs, nil); err != nil {
		return nil, err
	}
	s.d.close()
	s.d = nil
	if e.trace {
		o.metrics["store.replay_ms"], err = replayMS(dirs)
		if err != nil {
			return nil, err
		}
	}

	// Set-up: reopen the backends (journal replay, cache rehydration) and
	// the gateway; short, so repeated and reported as the median, each
	// round after a collection so it starts from the same heap. The
	// reopen above warmed the process.
	var on atomic.Bool
	var timers []*handlerTimer
	wrap := func(name string, h http.Handler) http.Handler {
		t := &handlerTimer{h: h, on: &on}
		timers = append(timers, t)
		return t
	}
	if !e.trace {
		wrap = nil
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s.d != nil {
			s.d.close()
		}
		timers = timers[:0]
		runtime.GC()
		t0 := time.Now()
		if s.d, err = openDeployment(dirs, wrap); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.d.close()
	o.metrics["setup_s"] = median(setups)
	o.record["setup_reps"] = len(setups)
	recovered := 0.0
	for _, srv := range s.d.srvs {
		recovered += scrape(srv.Metrics())["rasengan_jobs_recovered_total"]
	}
	if want := len(hot) + historyJobs; int(recovered) != want {
		o.invalid("set-up recovered %.0f journaled jobs, want %d", recovered, want)
	}
	o.record["offered_rate_per_s"] = map[string]float64{"hit": hitRate, "cold": coldRate, "batch": batchRate}
	o.record["batch_size"] = batchSize

	if !e.trace {
		m := s.openLoop(e.seconds, 0)
		o.attempted = m.attempted
		o.setResources(m.phase, m.windows)
		// Far below capacity, the open loop's throughput is its offered
		// rate whatever the system does: it is a validity check here, and
		// cpu_ms_per_op and latency_p50_ms carry the speed.
		offered := float64(m.attempted) / e.seconds.Seconds()
		completed := m.perSecond() / offered
		o.record["completed_over_offered"] = completed
		if completed < minCompleted {
			o.invalid("completed %.1f%% of the offered rate, want at least %.0f%%", completed*100, minCompleted*100)
		}
		o.recordTail("hit_latency_p50_ms", m.lat[classHit], 0.50, hitWindow)
		o.recordTail("hit_latency_p99_ms", m.lat[classHit], 0.99, hitWindow)
		o.recordTail("solve_latency_p50_ms", m.lat[classCold], 0.50, solveWindow)
		o.recordTail("solve_latency_p90_ms", m.lat[classCold], 0.90, solveWindow)
		o.metrics["arg_mean"] = mean(m.args)
		o.record["batch_submit_ms_p50"] = median(m.lat[classBatch])
		o.record["samples.batch"] = len(m.lat[classBatch])
		s.checkLag(o, m.lags)
		probe, sent := s.hitProbe(hitProbeSpan)
		o.attempted += sent
		o.pct("latency_p50_ms", probe, 0.50, hitWindow)
		o.record["latency_class"] = "cache hit, one caller back to back"
		mix := s.saturationMix()
		// Capacity is recorded, not reported: it needs both processors,
		// so it reads the machine's outside load more than the program
		// (see README.md).
		capacity := medianRate(capacityRounds, len(mix), func() { s.saturate(mix) })
		o.attempted += capacityRounds * len(mix)
		o.record["capacity_per_s"] = capacity
		o.record["offered_share_of_capacity"] = offered / capacity
		o.record["saturation_callers"] = runtime.NumCPU()
		return o, nil
	}

	// Traced run: an untraced phase and a traced phase of equal length.
	half := e.seconds / 2
	base := s.openLoop(half, 1)
	before := s.scrapeAll()
	on.Store(true)
	s.tracing = true
	traced := s.openLoop(half, 2)
	s.tracing = false
	on.Store(false)
	after := s.scrapeAll()
	o.attempted = base.attempted + traced.attempted
	s.checkLag(o, traced.lags)
	if err := s.layerMetrics(o, base, traced, before, after, timers); err != nil {
		return nil, err
	}
	o.zeroLayers()
	return o, nil
}

// checkLag records the generator's wake-up lateness and fails the run
// when the generator, not the system, set the pace.
func (s *serveRun) checkLag(o *outcome, lags []float64) {
	o.pct("load.generator_lag_ms_p99", lags, 0.99, len(lags))
	lag := o.metrics["load.generator_lag_ms_p99"]
	o.record["generator_lag_ms_p99"] = lag
	o.record["generator_lag_ms_p50"] = median(lags)
	o.record["generator_lag_ms_max"] = maxOf(lags)
	if !s.e.trace {
		delete(o.metrics, "load.generator_lag_ms_p99")
	}
	if lag > lagLimitMS {
		o.invalid("generator fell behind: wake-up lag p99 %.2f ms > %.0f ms", lag, lagLimitMS)
	}
}

// scrapeAll reads the counters of every backend (summed) and the gateway.
func (s *serveRun) scrapeAll() map[string]float64 {
	out := scrape(s.d.gw.Metrics())
	for _, srv := range s.d.srvs {
		for k, v := range scrape(srv.Metrics()) {
			out[k] += v
		}
	}
	return out
}

func (s *serveRun) layerMetrics(o *outcome, base, traced mixStats, before, after map[string]float64, timers []*handlerTimer) error {
	delta := func(name string) float64 { return after[name] - before[name] }
	var backendHit, backendSolve, gatewayHit []float64
	var counts []float64
	for i, t := range timers {
		t.mu.Lock()
		if i < len(s.d.srvs) {
			backendHit = append(backendHit, t.hit...)
			backendSolve = append(backendSolve, t.solve...)
			counts = append(counts, float64(t.requests))
		} else {
			gatewayHit = append(gatewayHit, t.hit...)
		}
		t.mu.Unlock()
	}
	o.pct("service.hit_handler_ms_p50", backendHit, 0.50, len(backendHit))
	gw, err := percentile(gatewayHit, 0.50)
	if err != nil {
		o.invalid("cluster.hop_ms_p50: %v", err)
	}
	o.metrics["cluster.hop_ms_p50"] = gw - o.metrics["service.hit_handler_ms_p50"]

	hits, misses := delta("rasengan_cache_hits_total"), delta("rasengan_cache_misses_total")
	execMS := delta("rasengan_solve_duration_seconds_sum") * 1000 / max(delta("rasengan_solve_duration_seconds_count"), 1)
	o.metrics["service.exec_ms_mean"] = execMS
	// Handler time of a cold solve less its executor time: the queue wait
	// plus admission and journal work.
	o.metrics["service.queue_wait_ms_mean"] = mean(backendSolve) - execMS
	o.metrics["service.cache_hit_ratio"] = hits / max(hits+misses, 1)
	o.metrics["service.coalesced_ratio"] = delta("rasengan_jobs_coalesced_total") / max(misses, 1)
	rejected := delta("rasengan_jobs_rejected_queue_full_total") + delta("rasengan_jobs_shed_total") +
		delta("rasengan_jobs_rejected_draining_total")
	o.metrics["service.rejected_ratio"] = rejected / max(hits+misses, 1)
	s.mu.Lock()
	o.metrics["service.payload_bytes_mean"] = mean(s.payloads)
	o.metrics["cluster.affinity_ratio"] = float64(s.affinity[0]) / float64(max(s.affinity[1], 1))
	s.mu.Unlock()
	o.metrics["service.spec_build_us"] = specBuildUS(s.hot)

	o.metrics["store.fsyncs_per_accepted_job"] = delta("rasengan_wal_fsyncs") / max(delta("rasengan_jobs_submitted_total"), 1)
	appendMS, err := journalAppendMS(filepath.Join(s.e.work, "probe-journal"))
	if err != nil {
		return err
	}
	o.metrics["store.journal_append_ms_p50"] = appendMS

	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	o.metrics["cluster.backend_balance"] = lo / max(hi, 1)
	o.metrics["cluster.retries_per_request"] = delta("rasengan_gateway_retries_total") / float64(traced.ops)
	o.metrics["cluster.failovers_total"] = delta("rasengan_gateway_failovers_total")
	o.metrics["cluster.hedges_total"] = delta("rasengan_gateway_hedges_total")

	o.metrics["parallel.cpu_utilization"] = base.utilization()
	o.setRuntime(traced.phase)
	o.metrics["obs.tracing_overhead_pct"] = overhead(base.phase, traced.phase)
	return nil
}

// scrape parses a registry's Prometheus text into series → value.
func scrape(reg interface{ WriteText(io.Writer) error }) map[string]float64 {
	var b bytes.Buffer
	_ = reg.WriteText(&b) // writes to a bytes.Buffer cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// replayMS times opening each journal (snapshot load, WAL replay and
// compaction) through the store's public API; the mean over backends.
func replayMS(dirs []string) (float64, error) {
	var ts []float64
	for _, dir := range dirs {
		t0 := time.Now()
		j, _, err := store.OpenJournal(dir)
		if err != nil {
			return 0, err
		}
		ts = append(ts, msSince(t0))
		if err := j.Close(); err != nil {
			return 0, err
		}
	}
	return mean(ts), nil
}

// journalAppendMS times single journal appends (one fsync each) on the
// data directory's filesystem; the p50.
func journalAppendMS(dir string) (float64, error) {
	j, _, err := store.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	data := []byte(`{"probe":"` + strings.Repeat("x", 288) + `"}`) // ~300 B, like a job record
	var ts []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := j.Submit("probe-"+strconv.Itoa(i), data); err != nil {
			return 0, err
		}
		ts = append(ts, msSince(t0))
	}
	return percentile(ts, 0.5)
}

// specBuildUS times what every request pays before the cache lookup:
// parse the spec, build the problem, hash the canonical form. Mean µs
// over the hot set.
func specBuildUS(hot []serveReq) float64 {
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, req := range hot {
			spec, err := problems.ParseSpec(req.spec)
			if err != nil {
				continue
			}
			_, _ = spec.Build()
			_, _ = spec.Hash()
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(rounds*len(hot))
}
