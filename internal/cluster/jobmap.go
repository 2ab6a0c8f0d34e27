package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"

	"rasengan/internal/api"
)

// jobEntry is the gateway's record of one proxied job: where it lives
// now, what it is called there, and — for jobs the gateway submitted
// itself — enough of the original request to re-submit it elsewhere if
// the owner dies (content addressing makes the re-submission safe: the
// same spec and config produce the same payload on any node).
type jobEntry struct {
	backend  string // current owner's Backend.ID
	upstream string // the job id on that backend
	specHash string // canonical spec hash (ring key); "" when unknown
	// request is a solve body the gateway accepted: the client's bytes,
	// or a batch item re-encoded. nil when unknown. See resubmitBody.
	request []byte
}

// resubmitBody is the body a failover or hedge sends for the stashed
// request: the same spec, config and timeout (so the cache key matches
// on any node) with wait_ms stripped (polls must not block a failover
// hop). It is built only when one is sent, not for every relayed answer.
func (e jobEntry) resubmitBody() []byte {
	var r api.SolveRequest
	// The gateway decoded these bytes with the same decoder on intake.
	_ = api.Decode(bytes.NewReader(e.request), &r)
	out, _ := json.Marshal(api.SolveRequest{Spec: r.Spec, Config: r.Config, TimeoutMS: r.TimeoutMS})
	return out
}

// jobMap is a bounded id → entry index with FIFO eviction, the same
// ring-buffer shape as the service's job retention. Entries for jobs
// the gateway never submitted (e.g. after a gateway restart) are
// reconstructed statelessly from the id's "<backend>." prefix, so
// eviction only costs the failover stash, never resolvability.
type jobMap struct {
	mu       sync.Mutex
	byID     map[string]*jobEntry
	retained []string
	head     int
	count    int
}

func newJobMap(capacity int) *jobMap {
	if capacity < 1 {
		capacity = 1
	}
	return &jobMap{byID: map[string]*jobEntry{}, retained: make([]string, capacity)}
}

func (m *jobMap) put(id string, e *jobEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byID[id]; ok {
		m.byID[id] = e
		return
	}
	if m.count < len(m.retained) {
		m.retained[(m.head+m.count)%len(m.retained)] = id
		m.count++
	} else {
		delete(m.byID, m.retained[m.head])
		m.retained[m.head] = id
		m.head = (m.head + 1) % len(m.retained)
	}
	m.byID[id] = e
}

// get returns a copy of the entry (callers mutate via put, never in
// place — the map stays free of data races without exposing its lock).
func (m *jobMap) get(id string) (jobEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok {
		return jobEntry{}, false
	}
	return *e, true
}

// gatewayJobID builds the client-visible id: "<backend>.<upstream>".
// The prefix makes resolution stateless — any gateway instance can
// route a poll for an id it has never seen.
func gatewayJobID(backend, upstream string) string { return backend + "." + upstream }

// splitJobID parses a gateway job id back into its mint-time backend
// and upstream id. ok is false for ids without the "<backend>." shape.
func splitJobID(id string) (backend, upstream string, ok bool) {
	i := strings.IndexByte(id, '.')
	if i <= 0 || i == len(id)-1 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}
