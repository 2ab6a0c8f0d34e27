// Package obs is the telemetry substrate of the solve stack: a
// lightweight, allocation-conscious span recorder that the pipeline
// stages (basis construction, Hamiltonian build, circuit compile,
// optimizer iterations, segment execution, sampling) report into, plus
// exporters that turn the recorded spans into Chrome trace-event JSON
// (trace.go) and per-stage duration aggregates for Prometheus
// histograms.
//
// Telemetry observes and never steers: a Recorder carries no state the
// solver reads back, so enabling it cannot reorder work or perturb RNG
// streams — solves stay bit-identical with telemetry on or off. Every
// method is safe on a nil *Recorder (a no-op), so instrumentation sites
// need no guards and a disabled pipeline pays only a nil receiver check.
package obs

import (
	"sync"
	"time"
)

// Canonical stage names used across the solve pipeline. The serving layer
// exposes them as the `stage` label of rasengan_stage_duration_seconds,
// so they form a small closed vocabulary rather than free-form strings.
const (
	// StageSolve is the root span of one full core.Solve call.
	StageSolve = "solve"
	// StageBasis is nullspace/homogeneous-basis construction (BuildBasis:
	// HNF nullspace, ternary kernel search, Algorithm 1 simplification).
	StageBasis = "basis"
	// StageHamiltonian is the transition-Hamiltonian pool and schedule
	// build (BuildSchedule: expansion rounds, pruning, early stop).
	StageHamiltonian = "hamiltonian"
	// StageCircuit is operator compilation and segmentation (NewExecutor).
	StageCircuit = "circuit"
	// StageIteration is one classical optimizer iteration.
	StageIteration = "iteration"
	// StageSegment is simulator segment execution: evolution through the
	// segments' transition operators for every live input state. The
	// executor sums it across evaluations and records one span per
	// optimizer iteration, not one per segment. On the exact path it also
	// covers the probability collapse, purification and normalization,
	// which run fused with the evolution; on the sampled path it also
	// covers the shot draws and readout flips, which run per input state.
	StageSegment = "segment"
	// StageSample is measurement readout, summed like StageSegment: on the
	// sampled path each segment's shot tally, purification and
	// normalization, and on both paths the evaluation's readout of its
	// final distribution (the energy, or the distribution handed back).
	StageSample = "sample"
	// StageFinalEval is the final distribution evaluation at the
	// optimizer's best parameters.
	StageFinalEval = "final_eval"
)

// AttrEngine is the span attribute key carrying the simulation engine
// ("map" or "compiled") on every StageSegment span, so traces of the two
// executor backends can be told apart and compared stage by stage.
const AttrEngine = "engine"

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Val string
}

// SpanID indexes a span within its Recorder; NoParent marks a root span.
type SpanID int32

// NoParent is the parent of top-level spans.
const NoParent SpanID = -1

// openEnd marks a started-but-unfinished span.
const openEnd = time.Duration(-1)

// Span is one recorded interval. Start and End are offsets on the
// recorder's monotonic clock (End == -1 while the span is open).
type Span struct {
	Name   string
	Track  int32
	Parent SpanID
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// Duration returns End-Start, or 0 for a still-open span.
func (s Span) Duration() time.Duration {
	if s.End < 0 {
		return 0
	}
	return s.End - s.Start
}

// Recorder accumulates spans from any number of goroutines. Spans live in
// one growing slice (ids are indices), attrs ride the variadic slice the
// caller built, and the only lock is a short append-scope mutex, so a
// recording site costs one clock read, one lock, and one slice append.
type Recorder struct {
	now func() time.Duration

	mu     sync.Mutex
	spans  []Span
	tracks []string
}

// NewRecorder returns a recorder whose clock is monotonic time since
// creation.
func NewRecorder() *Recorder {
	origin := time.Now()
	return NewRecorderWithClock(func() time.Duration { return time.Since(origin) })
}

// NewRecorderWithClock injects the clock — tests pass a fake to make span
// intervals deterministic. now must be monotone non-decreasing and safe
// for concurrent use.
func NewRecorderWithClock(now func() time.Duration) *Recorder {
	return &Recorder{now: now, tracks: []string{"main"}}
}

// Enabled reports whether spans are being recorded (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns the recorder's clock reading (0 on nil).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// Track allocates a new track (a horizontal lane in the trace viewer —
// one per concurrent strand, e.g. one per optimizer start) and returns
// its id. Track 0 always exists and is named "main". Nil recorders
// return 0.
func (r *Recorder) Track(name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return int32(len(r.tracks) - 1)
}

// Start opens a span and returns its id for End. Attrs are retained as
// given; callers must not mutate them afterwards.
func (r *Recorder) Start(name string, track int32, parent SpanID, attrs ...Attr) SpanID {
	if r == nil {
		return NoParent
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Track: track, Parent: parent, Start: start, End: openEnd, Attrs: attrs})
	return SpanID(len(r.spans) - 1)
}

// End closes the span. Ending an already-closed span or an invalid id is
// a no-op, so defer-heavy call sites need no bookkeeping.
func (r *Recorder) End(id SpanID) {
	if r == nil || id < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.spans) || r.spans[id].End >= 0 {
		return
	}
	r.spans[id].End = end
}

// Record appends an already-measured span — used when the boundary is
// only known in arrears, like optimizer iterations delimited by their
// completion callbacks.
func (r *Recorder) Record(name string, track int32, parent SpanID, start, end time.Duration, attrs ...Attr) SpanID {
	if r == nil {
		return NoParent
	}
	if end < start {
		end = start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Track: track, Parent: parent, Start: start, End: end, Attrs: attrs})
	return SpanID(len(r.spans) - 1)
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of all recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// TrackNames returns the registered track names, index == track id.
func (r *Recorder) TrackNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.tracks...)
}

// StageTotals sums the duration of every closed span per stage name. When
// tracks are given, only spans on those tracks count — a solve that
// shares a recorder with concurrent solves passes its own track set to
// aggregate just its spans.
func (r *Recorder) StageTotals(tracks ...int32) map[string]time.Duration {
	if r == nil {
		return nil
	}
	var want map[int32]bool
	if len(tracks) > 0 {
		want = make(map[int32]bool, len(tracks))
		for _, t := range tracks {
			want[t] = true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	totals := make(map[string]time.Duration)
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < 0 {
			continue
		}
		if want != nil && !want[s.Track] {
			continue
		}
		totals[s.Name] += s.End - s.Start
	}
	return totals
}
