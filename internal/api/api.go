// Package api is the one definition of the solve HTTP wire shared by
// rasengan-serve (internal/service) and rasengan-gateway
// (internal/cluster): the request and response bodies, the strict body
// decoder, JSON and error writing, and the route table with its request
// metrics. Both servers build their handlers from it, so the two sides
// cannot drift apart without a compile error.
//
// Result, Telemetry and Progress are raw JSON: the service marshals them
// once when it builds a response, and the gateway passes them through
// unparsed, so a payload keeps its bytes across the extra hop.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rasengan/internal/metrics"
)

// MaxBodyBytes caps every request body and every upstream response the
// gateway reads.
const MaxBodyBytes = 1 << 20

// Status is the lifecycle state of a job.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// SolveRequest is the body of POST /v1/solve and one item of a batch.
type SolveRequest struct {
	// Spec selects the problem (see problems.Spec).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Config tunes the solver; zero values mean defaults.
	Config Config `json:"config"`
	// WaitMS, when positive, holds the request open up to that many
	// milliseconds for the result, enabling one-round-trip solves.
	WaitMS int `json:"wait_ms,omitempty"`
	// TimeoutMS overrides the job deadline (capped by the server's
	// MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Config is the client-facing subset of the solver knobs. The service
// maps it onto core.Options; everything not exposed here stays at the
// pipeline default. The journal stores it verbatim, so its encoding is
// part of the on-disk format too.
type Config struct {
	Seed          int64  `json:"seed,omitempty"`
	MaxIter       int    `json:"max_iter,omitempty"`
	Shots         int    `json:"shots,omitempty"`
	Device        string `json:"device,omitempty"`
	SparsestFirst bool   `json:"sparsest_first,omitempty"`
	// WarmStart opts in to seeding the optimizer from the server's
	// warm-start parameter store (exact spec match first, then the
	// (family, scale) bucket). Inert on servers without a data
	// directory. The injected parameters become part of the resolved
	// options — and therefore of the cache key — so warm-started and
	// cold requests never alias.
	WarmStart bool `json:"warm_start,omitempty"`
}

// Job is the envelope of POST /v1/solve, GET /v1/jobs/{id} and
// POST /v1/jobs/{id}/cancel, and one summary entry of GET /v1/jobs.
type Job struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Result is the cached-or-computed payload verbatim: for one cache key
	// it is byte-identical on every response that includes it.
	Result json.RawMessage `json:"result,omitempty"`
	// Telemetry is the job's convergence trace (core.IterationTelemetry
	// records of the winning start). Present on computed jobs only —
	// cache hits replay result bytes, not the original run's telemetry.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
	// Progress is the latest live-progress record (obs.Progress) of a
	// queued or running job; never present on terminal responses, so
	// cached payload byte-identity is untouched.
	Progress json.RawMessage `json:"progress,omitempty"`
}

// BatchRequest is the body of POST /v1/solve/batch. Items are admitted
// individually (mixed outcomes are normal), but the accepted ones share
// one journal group-commit.
type BatchRequest struct {
	Items []SolveRequest `json:"items"`
}

// BatchItem is one item's outcome; Code is the HTTP status the item
// would have received from POST /v1/solve.
type BatchItem struct {
	Code        int             `json:"code"`
	JobID       string          `json:"job_id,omitempty"`
	Status      Status          `json:"status,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Error       string          `json:"error,omitempty"`
	RetryAfterS int             `json:"retry_after_s,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the body of a POST /v1/solve/batch answer.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// JobList is the body of GET /v1/jobs: paginated summaries (no result
// payloads, telemetry or progress) in submission order.
type JobList struct {
	Jobs   []Job `json:"jobs"`
	Total  int   `json:"total"`
	Offset int   `json:"offset"`
	Limit  int   `json:"limit"`
}

// Error is the body of every non-2xx answer.
type Error struct {
	Error string `json:"error"`
}

// Health is the body of the service's GET /healthz. Fields are in
// alphabetical order, the order the body has always had. "draining" in
// State means alive but rejecting new work, which a gateway's health
// checker keys on.
type Health struct {
	Executing int    `json:"executing"`
	Queued    int    `json:"queued"`
	State     string `json:"state"`
	Status    string `json:"status"`
}

// Decode reads the first JSON value of r into v. Unknown fields are
// errors, so a misspelled key is rejected instead of silently dropped.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSON answers code with v as one line of JSON. HTML escaping is off
// so payload bytes pass through unchanged.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteJob answers code with a Job envelope: the bytes WriteJSON writes
// for j when its raw fields are compact JSON, which every server-built
// Job's are. The raw fields are appended verbatim; WriteJSON would scan
// and compact each of them again.
func WriteJob(w http.ResponseWriter, code int, j Job) {
	const keys = len(`{"job_id":"","status":"","cached":false,"error":"","result":,"telemetry":,"progress":}` + "\n")
	size := keys + len(j.JobID) + len(j.Status) + len(j.Error) + len(j.Result) + len(j.Telemetry) + len(j.Progress)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendJob(make([]byte, 0, size), j))
}

func appendJob(dst []byte, j Job) []byte {
	dst = appendString(append(dst, `{"job_id":`...), j.JobID)
	dst = appendString(append(dst, `,"status":`...), string(j.Status))
	dst = strconv.AppendBool(append(dst, `,"cached":`...), j.Cached)
	if j.Error != "" {
		dst = appendString(append(dst, `,"error":`...), j.Error)
	}
	dst = appendRaw(dst, `,"result":`, j.Result)
	dst = appendRaw(dst, `,"telemetry":`, j.Telemetry)
	dst = appendRaw(dst, `,"progress":`, j.Progress)
	return append(dst, "}\n"...)
}

// appendRaw appends an omitempty raw field verbatim.
func appendRaw(dst []byte, key string, raw json.RawMessage) []byte {
	if len(raw) == 0 {
		return dst
	}
	return append(append(dst, key...), raw...)
}

// jobHead opens every Job envelope: JobID is the first field, and
// server-minted ids need no escaping.
const jobHead = `{"job_id":"`

// SplitJob splits a Job envelope as WriteJob or WriteJSON writes it into
// its job id and the bytes after the id, so that a relay can rename the
// job without decoding and re-encoding its payload. ok is false unless
// body is valid JSON in exactly that layout with a plain printable-ASCII
// id, and it is false when body holds \ufffd, the escape WriteJSON writes
// for invalid UTF-8: decoding turns it into a literal U+FFFD, so such a
// body is not what a decode and re-encode would answer.
func SplitJob(body []byte) (id string, rest []byte, ok bool) {
	if !bytes.HasPrefix(body, []byte(jobHead)) || !bytes.HasSuffix(body, []byte("}\n")) {
		return "", nil, false
	}
	end := len(jobHead)
	for ; end < len(body) && body[end] != '"'; end++ {
		if c := body[end]; c < 0x20 || c > 0x7e || c == '\\' {
			return "", nil, false
		}
	}
	if end == len(body) || bytes.Contains(body, []byte(`\ufffd`)) || !json.Valid(body) {
		return "", nil, false
	}
	return string(body[len(jobHead):end]), body[end+1:], true
}

// WriteJobAs answers code with an envelope split by SplitJob, under job
// id instead of the one it was split from.
func WriteJobAs(w http.ResponseWriter, code int, id string, rest []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendString(append(make([]byte, 0, len(jobHead)+len(id)+1), `{"job_id":`...), id))
	_, _ = w.Write(rest)
}

// appendString appends s as encoding/json writes a string with HTML
// escaping off. Printable ASCII other than quote and backslash, which is
// all a job id or status holds, is appended as it is; any other string
// goes through encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// WriteError answers code with an Error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, Error{Error: fmt.Sprintf(format, args...)})
}

// WriteRetry answers a retryable rejection: WriteError plus a
// Retry-After of retryAfterS seconds.
func WriteRetry(w http.ResponseWriter, code, retryAfterS int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	WriteError(w, code, format, args...)
}

// Handlers is one server's implementation of the API routes.
type Handlers struct {
	Solve, SolveBatch, Jobs, Job, JobEvents, Cancel, Problems, Health http.HandlerFunc
}

// RouteMetrics names the per-route request metrics a server exports: a
// duration histogram and a request counter labelled by status code.
type RouteMetrics struct {
	Registry                   *metrics.Registry
	DurationName, DurationHelp string
	CountName, CountHelp       string
}

// NewHandler routes the API to h, instruments every route but /metrics,
// and serves the registry at GET /metrics.
func NewHandler(m RouteMetrics, h Handlers) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern, name string
		handler       http.HandlerFunc
	}{
		{"POST /v1/solve", "solve", h.Solve},
		{"POST /v1/solve/batch", "solve_batch", h.SolveBatch},
		{"GET /v1/jobs", "jobs", h.Jobs},
		{"GET /v1/jobs/{id}", "job", h.Job},
		{"GET /v1/jobs/{id}/events", "job_events", h.JobEvents},
		{"POST /v1/jobs/{id}/cancel", "cancel", h.Cancel},
		{"GET /v1/problems", "problems", h.Problems},
		{"GET /healthz", "healthz", h.Health},
	} {
		mux.HandleFunc(rt.pattern, m.instrument(rt.name, rt.handler))
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = m.Registry.WriteText(w)
	})
	return mux
}

func (m RouteMetrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	// The duration child is resolved once per route at wrap time and each
	// status code's counter on first use, so the per-request cost is one
	// observation and one increment, not a registry lookup under its lock.
	dur := m.Registry.HistogramWith(m.DurationName, m.DurationHelp, nil, [2]string{"route", route})
	// Counters by status code: reads load an immutable map without a
	// lock; the first request with a new code publishes a copy with it.
	var counts atomic.Pointer[map[int]metrics.Counter]
	var mu sync.Mutex
	count := func(code int) metrics.Counter {
		if byCode := counts.Load(); byCode != nil {
			if c, ok := (*byCode)[code]; ok {
				return c
			}
		}
		mu.Lock()
		defer mu.Unlock()
		next := map[int]metrics.Counter{}
		if byCode := counts.Load(); byCode != nil {
			for k, v := range *byCode {
				next[k] = v
			}
		}
		if _, ok := next[code]; !ok {
			next[code] = m.Registry.CounterWith(m.CountName, m.CountHelp,
				[2]string{"route", route}, [2]string{"code", strconv.Itoa(code)})
		}
		counts.Store(&next)
		return next[code]
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		dur.Observe(time.Since(start).Seconds())
		count(rec.code).Inc()
	}
}

// statusRecorder captures the response status for the request counter. It
// must stay transparent to streaming handlers: Flush forwards to the
// underlying writer when it supports flushing (SSE breaks without this —
// events would sit in the server's buffer until the stream ends), and
// Unwrap lets http.ResponseController reach every other optional
// interface of the original writer.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
