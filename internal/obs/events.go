package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Flight recorder: a bounded ring of structured operational events the
// serving stack appends to at interesting moments (admission shed,
// engine fallback, lease renegotiation, warm-start decisions,
// checkpoint writes, recovered panics, WAL recovery, anomaly captures).
// The ring holds the most recent N events — old ones fall off the far
// end and are only counted — so an operator asking "why was that solve
// slow?" can dump the recent window (/debug/events, rasengan-inspect
// -events) without the service having stored an unbounded log. Like
// the rest of this package, recording is observational: nothing reads
// events back into a solve.

// Severity classifies an event for filtering and display.
type Severity string

const (
	SevInfo  Severity = "info"
	SevWarn  Severity = "warn"
	SevError Severity = "error"
)

// Event kinds recorded by the solve stack — a small closed vocabulary,
// like the span stage names, so dashboards and tests can match on them.
const (
	// EventShed marks a submission rejected by admission control (shed
	// watermark or full queue) before any job existed.
	EventShed = "admission_shed"
	// EventLease marks a mid-solve worker-lease renegotiation (the
	// compute budget resized this solve's width between iterations).
	EventLease = "lease_renegotiated"
	// EventEngineFallback marks an executor falling back from the
	// compiled engine to the map engine; the detail carries
	// Executor.EngineFallbackReason.
	EventEngineFallback = "engine_fallback"
	// EventWarmStart marks a warm-start store hit (detail: exact or
	// family bucket).
	EventWarmStart = "warmstart_hit"
	// EventWarmStartDimMismatch marks a stored warm-start vector skipped
	// because its dimension did not match the request's schedule.
	EventWarmStartDimMismatch = "warmstart_dim_mismatch"
	// EventCheckpoint marks one checkpoint file written mid-solve.
	EventCheckpoint = "checkpoint_write"
	// EventPanic marks a solver panic recovered into a failed job.
	EventPanic = "solver_panic"
	// EventWALRecovery marks a journal replay at startup.
	EventWALRecovery = "wal_recovery"
	// EventAnomalyCapture marks the stall/SLO watchdog snapshotting a
	// slow or stalled solve to disk.
	EventAnomalyCapture = "anomaly_capture"
)

// Event is one flight-recorder record.
type Event struct {
	// Seq is the ring-assigned monotone sequence number (1-based).
	Seq uint64 `json:"seq"`
	// TimeUnixMS is the wall-clock recording time.
	TimeUnixMS int64    `json:"time_unix_ms"`
	Severity   Severity `json:"severity"`
	// Kind is one of the Event* constants above.
	Kind string `json:"kind"`
	// JobID and SpecHash correlate the event with a job and its problem;
	// either may be empty (e.g. shed requests never got a job id).
	JobID    string `json:"job_id,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	// Detail is a short free-form human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// EventRing is a fixed-capacity ring buffer of events, safe for
// concurrent use. All methods are nil-safe no-ops so instrumentation
// sites need no guards.
type EventRing struct {
	now func() time.Time

	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest event
	count   int
	seq     uint64
	dropped uint64
}

// DefaultEventRingSize is the capacity serving binaries use unless
// configured otherwise.
const DefaultEventRingSize = 1024

// NewEventRing returns a ring holding the most recent `capacity`
// events (minimum 1).
func NewEventRing(capacity int) *EventRing {
	return NewEventRingWithClock(capacity, time.Now)
}

// NewEventRingWithClock injects the wall clock (tests pass a fake so
// recorded timestamps are deterministic).
func NewEventRingWithClock(capacity int, now func() time.Time) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, capacity), now: now}
}

// Record appends one event, evicting the oldest when the ring is full.
// Seq and TimeUnixMS are assigned here; pass everything else.
func (r *EventRing) Record(sev Severity, kind, jobID, specHash, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e := Event{
		Seq:        r.seq,
		TimeUnixMS: r.now().UnixMilli(),
		Severity:   sev,
		Kind:       kind,
		JobID:      jobID,
		SpecHash:   specHash,
		Detail:     detail,
	}
	if r.count < len(r.buf) {
		r.buf[(r.head+r.count)%len(r.buf)] = e
		r.count++
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Snapshot returns the resident events oldest-first. The slice is a
// copy; mutating it cannot corrupt the ring.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// SnapshotJob returns the resident events carrying the given job id,
// oldest-first.
func (r *EventRing) SnapshotJob(jobID string) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.JobID == jobID {
			out = append(out, e)
		}
	}
	return out
}

// Len returns how many events are resident (≤ capacity).
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns how many events have been evicted to make room.
func (r *EventRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Seq returns the sequence number of the most recent event (0 when
// nothing was ever recorded).
func (r *EventRing) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// EventDumpVersion versions the WriteJSON envelope (and the on-disk
// events.json of anomaly captures) so tooling can detect format drift.
const EventDumpVersion = 1

// eventDump is the serialized envelope of WriteJSON.
type eventDump struct {
	Version int     `json:"version"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// WriteJSON renders the ring's resident window as a versioned JSON
// envelope: {"version":1,"dropped":N,"events":[...]}. Used by the
// /debug/events handler and the anomaly-capture snapshot.
func (r *EventRing) WriteJSON(w io.Writer) error {
	dump := eventDump{Version: EventDumpVersion, Dropped: r.Dropped(), Events: r.Snapshot()}
	if dump.Events == nil {
		dump.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(dump)
}

// ParseEventDump decodes a WriteJSON envelope (rasengan-inspect -events
// reads capture files and /debug/events bodies through it). An envelope
// of any other version, or of none, is refused rather than misread.
func ParseEventDump(data []byte) (events []Event, dropped uint64, err error) {
	var dump eventDump
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, 0, err
	}
	if dump.Version != EventDumpVersion {
		return nil, 0, fmt.Errorf("obs: event dump version %d, this build reads version %d", dump.Version, EventDumpVersion)
	}
	return dump.Events, dump.Dropped, nil
}

// EventScope binds a ring to one job's correlation ids so layers that
// know nothing about jobs (the core solver) can still record correlated
// events. A nil scope, or a scope over a nil ring, records nothing.
type EventScope struct {
	Ring     *EventRing
	JobID    string
	SpecHash string
}

// Event records one event under the scope's correlation ids.
func (s *EventScope) Event(sev Severity, kind, detail string) {
	if s == nil {
		return
	}
	s.Ring.Record(sev, kind, s.JobID, s.SpecHash, detail)
}
