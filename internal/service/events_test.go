package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
)

// progressSolve returns a SolveFunc that publishes pre records into the
// job's progress cell, blocks on release (when non-nil), publishes post
// more, and returns a canned result. Energies strictly improve so the
// published stream exercises the incumbent fold.
func progressSolve(pre, post int, release <-chan struct{}) SolveFunc {
	return func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error) {
		cell := opts.Telemetry.Progress
		n := 0
		pub := func() {
			cell.Publish(obs.Progress{Start: 0, Iter: n, BestEnergy: float64(-n), ParamNorm: 1})
			n++
		}
		for i := 0; i < pre; i++ {
			pub()
		}
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for i := 0; i < post; i++ {
			pub()
		}
		return &core.Result{
			BestSolution: p.Init,
			BestValue:    p.Objective(p.Init),
			Expectation:  p.Objective(p.Init),
		}, nil
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the stream until after the first event named until
// (or EOF), returning the named events seen (heartbeat comments are
// skipped).
func readSSE(t *testing.T, r *bufio.Reader, until string) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			if cur.name == until {
				return events
			}
			cur = sseEvent{}
		}
	}
}

// TestJobEventsSSEStream is the acceptance test for the live stream: a
// subscriber sees monotone progress records (non-increasing best
// energy) and a final done event once the job settles.
func TestJobEventsSSEStream(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Executors: 1, Solve: progressSolve(2, 3, release)})

	code, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: code %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	close(release)

	events := readSSE(t, bufio.NewReader(resp.Body), "done")
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("stream did not end with done: %+v", events)
	}
	var done struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &done); err != nil || done.Status != string(api.StatusDone) {
		t.Fatalf("done payload %q (err %v)", events[len(events)-1].data, err)
	}

	progress := events[:len(events)-1]
	if len(progress) == 0 {
		t.Fatal("no progress events before done")
	}
	lastIter := 0
	lastBest := 1e300
	for _, ev := range progress {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q", ev.name)
		}
		var p obs.Progress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("bad progress payload %q: %v", ev.data, err)
		}
		if p.Iteration <= lastIter {
			t.Fatalf("iteration not monotone: %d after %d", p.Iteration, lastIter)
		}
		if p.BestEnergy > lastBest {
			t.Fatalf("best energy worsened: %v after %v", p.BestEnergy, lastBest)
		}
		lastIter, lastBest = p.Iteration, p.BestEnergy
	}
	if lastIter != 5 {
		t.Fatalf("final folded iteration %d, want 5 (stream must not end early)", lastIter)
	}
}

// TestJobEventsLimits covers the stream admission paths: unknown job →
// 404, and subscribers past MaxEventStreams → 503 with Retry-After.
func TestJobEventsLimits(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Config{Executors: 1, MaxEventStreams: 1, Solve: stubSolve(block)})

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status %d", resp.StatusCode)
		}
	}

	_, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	first, err := http.Get(ts.URL + "/v1/jobs/" + sr.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first stream: status %d", first.StatusCode)
	}
	second, err := http.Get(ts.URL + "/v1/jobs/" + sr.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: status %d, want 503", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("503 stream rejection lacks Retry-After")
	}
}

// TestProgressOnJobView checks the poll path: a running job's view
// carries the folded progress, and a terminal view (served from the
// stable payload) does not.
func TestProgressOnJobView(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Executors: 1, Solve: progressSolve(1, 0, release)})

	_, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID)
		if strings.Contains(body, `"progress"`) {
			if !strings.Contains(body, `"iteration":1`) {
				t.Fatalf("running view progress malformed: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running view never showed progress: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	deadline = time.Now().Add(5 * time.Second)
	for {
		body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID)
		if strings.Contains(body, `"status":"done"`) {
			if strings.Contains(body, `"progress"`) {
				t.Fatalf("terminal view still carries progress: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPRequestDurationMetric checks the per-route latency histogram
// satellite: after traffic, /metrics exposes
// rasengan_http_request_duration_seconds keyed by route.
func TestHTTPRequestDurationMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{Solve: stubSolve(nil)})
	postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0},"wait_ms":30000}`)
	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_http_request_duration_seconds") {
		t.Fatalf("duration histogram missing:\n%s", grepLines(metricsText, "duration"))
	}
	if !strings.Contains(metricsText, `route="solve"`) {
		t.Fatalf("solve route label missing:\n%s", grepLines(metricsText, "http_request_duration"))
	}
}

// TestDebugEventsEndpoint checks the flight-recorder dump handler and
// that the admission path records shed events into the ring.
func TestDebugEventsEndpoint(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 1, Solve: stubSolve(block)})

	// Fill the executor + queue, then overflow to provoke a shed event.
	for i := 0; i < 4; i++ {
		postSolve(t, ts, fmt.Sprintf(`{"spec":{"family":"FLP","scale":1,"case":%d}}`, i))
	}

	dbg := httptest.NewServer(s.DebugEventsHandler())
	defer dbg.Close()
	body := getBody(t, dbg.URL)
	events, _, err := obs.ParseEventDump([]byte(body))
	if err != nil {
		t.Fatalf("debug dump unparseable: %v\n%s", err, body)
	}
	sawShed := false
	for _, e := range events {
		if e.Kind == obs.EventShed {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatalf("no %s event in ring after queue overflow: %+v", obs.EventShed, events)
	}
	if s.Events().Len() == 0 {
		t.Fatal("Events() accessor reports an empty ring")
	}
}

// TestStallWatchdogCapture is the acceptance test for anomaly
// auto-capture: a solve that publishes once and then goes silent past
// the stall window must produce a loadable capture directory (metadata,
// event window, Chrome trace, progress series) and count the capture.
func TestStallWatchdogCapture(t *testing.T) {
	release := make(chan struct{})
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Executors:   1,
		StallWindow: 30 * time.Millisecond,
		CaptureDir:  dir,
		Solve:       progressSolve(1, 0, release),
	})

	_, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	capDir := filepath.Join(dir, sr.JobID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(capDir, "progress.json")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall watchdog never wrote a capture")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)

	var meta struct {
		Version  int    `json:"version"`
		JobID    string `json:"job_id"`
		Reason   string `json:"reason"`
		SpecHash string `json:"spec_hash"`
	}
	raw, err := os.ReadFile(filepath.Join(capDir, "capture.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatalf("capture.json unparseable: %v\n%s", err, raw)
	}
	if meta.Version != CaptureVersion || meta.JobID != sr.JobID || meta.Reason != "stall" || meta.SpecHash == "" {
		t.Fatalf("capture metadata wrong: %+v", meta)
	}

	raw, err = os.ReadFile(filepath.Join(capDir, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := obs.ParseEventDump(raw)
	if err != nil {
		t.Fatalf("events.json unparseable: %v", err)
	}
	sawCapture := false
	for _, e := range events {
		if e.Kind == obs.EventAnomalyCapture && e.JobID == sr.JobID {
			sawCapture = true
		}
	}
	if !sawCapture {
		t.Fatalf("event window lacks the anomaly_capture record: %+v", events)
	}

	// The trace must be loadable Chrome trace-event JSON (object format:
	// a traceEvents array whose entries carry the mandatory ph field).
	raw, err = os.ReadFile(filepath.Join(capDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace.json is not trace-event JSON: %v\n%s", err, raw)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("trace has no events: %s", raw)
	}
	for i, ev := range trace.TraceEvents {
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("trace event %d lacks ph: %v", i, ev)
		}
	}

	raw, err = os.ReadFile(filepath.Join(capDir, "progress.json"))
	if err != nil {
		t.Fatal(err)
	}
	var series struct {
		Version  int            `json:"version"`
		Progress []obs.Progress `json:"progress"`
	}
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatalf("progress.json unparseable: %v\n%s", err, raw)
	}
	if series.Version != CaptureVersion || len(series.Progress) != 1 || series.Progress[0].Iteration != 1 {
		t.Fatalf("progress series wrong: %+v", series)
	}

	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `rasengan_anomaly_captures_total{reason="stall"} 1`) {
		t.Fatalf("capture not counted:\n%s", grepLines(metricsText, "anomaly"))
	}
}

// TestSLOWatchdogCapture checks the latency-SLO trigger and that a
// second trigger (the stall window also firing later) does not produce
// a second capture for the same job.
func TestSLOWatchdogCapture(t *testing.T) {
	release := make(chan struct{})
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Executors:   1,
		StallWindow: 40 * time.Millisecond,
		SolveSLO:    20 * time.Millisecond,
		CaptureDir:  dir,
		Solve:       progressSolve(1, 0, release),
	})

	_, sr, _ := postSolve(t, ts, `{"spec":{"family":"FLP","scale":1,"case":0}}`)
	capDir := filepath.Join(dir, sr.JobID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(capDir, "capture.json")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SLO watchdog never wrote a capture")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the stall window fire too, then settle the job.
	time.Sleep(80 * time.Millisecond)
	close(release)

	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `rasengan_anomaly_captures_total{reason="slo"} 1`) {
		t.Fatalf("slo capture not counted once:\n%s", grepLines(metricsText, "anomaly"))
	}
	if strings.Contains(metricsText, `reason="stall"} 1`) {
		t.Fatalf("stall fired a second capture for the same job:\n%s", grepLines(metricsText, "anomaly"))
	}
}

// TestRuntimeGaugesExposed checks the Go runtime/process gauges are in
// the registry from startup.
func TestRuntimeGaugesExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	metricsText := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{
		"rasengan_go_goroutines",
		"rasengan_go_heap_alloc_bytes",
		"rasengan_go_gc_cycles_total",
		"rasengan_process_uptime_seconds",
		"rasengan_event_ring_events",
	} {
		if !strings.Contains(metricsText, name) {
			t.Errorf("metric %s missing", name)
		}
	}
}
