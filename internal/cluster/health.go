package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"rasengan/internal/api"
)

// Backend is one rasengan-serve upstream. Its URL is mutable (rolling
// redeploys move processes; tests move listeners) — everything else
// about its identity is the stable ID, which is what the ring hashes.
type Backend struct {
	// ID names the backend on the ring and in metrics. Immutable; must
	// not contain '.' (gateway job ids are "<id>.<upstream job id>").
	ID string

	mu  sync.RWMutex
	url string

	// Health-check state, guarded by mu. A backend starts up: the
	// gateway would otherwise blackhole traffic until the first probe
	// pass completes.
	up         bool
	state      string // last observed /healthz state ("ok", "draining", ...)
	queued     int    // last observed queue depth
	executing  int    // last observed executing-solve count
	consecFail int
	consecOK   int
}

// NewBackend builds a routable backend in the initial "up" state.
func NewBackend(id, url string) *Backend {
	return &Backend{ID: id, url: url, up: true, state: "unknown"}
}

// URL returns the backend's current base URL.
func (b *Backend) URL() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.url
}

// SetURL re-points the backend (rolling redeploy, test restart). Health
// state is kept: a dead backend stays ejected until probes pass again.
func (b *Backend) SetURL(url string) {
	b.mu.Lock()
	b.url = url
	b.mu.Unlock()
}

// Up reports whether the backend is currently routable.
func (b *Backend) Up() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.up
}

// Stats returns the last observed health snapshot.
func (b *Backend) Stats() (state string, queued, executing int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.state, b.queued, b.executing
}

// healthChecker actively probes every backend's /healthz and drives
// ring ejection/re-admission. A backend is ejected after FailThreshold
// consecutive bad probes (transport error, non-200, or a "draining"
// state — a draining backend answers 200 but must stop receiving new
// work) and re-admitted after RiseThreshold consecutive good ones.
// Ejection uses Ring.SetEjected, never Remove: placement is preserved,
// so a recovered backend gets its exact key range — and its warm
// caches — back.
type healthChecker struct {
	ring     *Ring
	backends map[string]*Backend
	client   *http.Client
	interval time.Duration
	failN    int
	riseN    int
	onChange func(b *Backend, up bool) // observability hook; may be nil
}

func newHealthChecker(ring *Ring, backends map[string]*Backend, interval, timeout time.Duration, failN, riseN int, onChange func(*Backend, bool)) *healthChecker {
	if interval <= 0 {
		interval = time.Second
	}
	if timeout <= 0 {
		timeout = interval
	}
	if failN <= 0 {
		failN = 2
	}
	if riseN <= 0 {
		riseN = 2
	}
	return &healthChecker{
		ring:     ring,
		backends: backends,
		client:   &http.Client{Timeout: timeout},
		interval: interval,
		failN:    failN,
		riseN:    riseN,
		onChange: onChange,
	}
}

// Run probes on the configured interval until ctx is done.
func (h *healthChecker) Run(ctx context.Context) {
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.CheckAll(ctx)
		}
	}
}

// CheckAll runs one probe pass over every backend. Exposed (via the
// Gateway) so tests drive ejection deterministically instead of
// sleeping through ticker intervals.
func (h *healthChecker) CheckAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range h.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			h.checkOne(ctx, b)
		}(b)
	}
	wg.Wait()
}

func (h *healthChecker) checkOne(ctx context.Context, b *Backend) {
	view, err := h.probe(ctx, b.URL())

	b.mu.Lock()
	if err == nil {
		b.state = view.State
		b.queued = view.Queued
		b.executing = view.Executing
		if view.State != "ok" {
			// Reachable but draining (or otherwise not accepting work):
			// treat as a failed intake probe.
			err = errDrainingBackend
		}
	} else {
		b.state = "down"
	}

	var flipped, nowUp bool
	if err != nil {
		b.consecOK = 0
		b.consecFail++
		if b.up && b.consecFail >= h.failN {
			b.up, flipped, nowUp = false, true, false
		}
	} else {
		b.consecFail = 0
		b.consecOK++
		if !b.up && b.consecOK >= h.riseN {
			b.up, flipped, nowUp = true, true, true
		}
	}
	b.mu.Unlock()

	if flipped {
		h.ring.SetEjected(b.ID, !nowUp)
		if h.onChange != nil {
			h.onChange(b, nowUp)
		}
	}
}

// errDrainingBackend marks a 200 probe whose state says the backend is
// not accepting new work.
var errDrainingBackend = errHealth("backend draining")

type errHealth string

func (e errHealth) Error() string { return string(e) }

func (h *healthChecker) probe(ctx context.Context, base string) (api.Health, error) {
	var view api.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return view, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return view, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return view, errHealth("healthz status " + resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&view); err != nil {
		return view, err
	}
	return view, nil
}
