package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rasengan/internal/api"
	"rasengan/internal/core"
)

// TestStageMetricsAndJobTelemetry drives one real solve through the
// service and checks the three observability surfaces it feeds: per-stage
// duration histograms on /metrics, the solves-running/queue gauges, and
// the convergence trace on the job response.
func TestStageMetricsAndJobTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{Executors: 1})
	code, sr, _ := postSolve(t, ts,
		`{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":5,"max_iter":30},"wait_ms":30000}`)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("solve: code %d status %s error %q", code, sr.Status, sr.Error)
	}

	var records []core.IterationTelemetry
	if err := json.Unmarshal(sr.Telemetry, &records); err != nil || len(records) == 0 {
		t.Fatalf("computed job carried no convergence telemetry (%v)", err)
	}
	prev := -1
	for _, it := range records {
		if it.Iter <= prev {
			t.Errorf("telemetry iterations not strictly increasing: %d after %d", it.Iter, prev)
		}
		prev = it.Iter
	}
	// The job endpoint replays the same telemetry.
	var again api.Job
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs/"+sr.JobID)), &again); err != nil {
		t.Fatal(err)
	}
	var againRecords []core.IterationTelemetry
	_ = json.Unmarshal(again.Telemetry, &againRecords)
	if len(againRecords) != len(records) {
		t.Errorf("GET /v1/jobs telemetry has %d records, solve response had %d",
			len(againRecords), len(records))
	}

	metricsText := getBody(t, ts.URL+"/metrics")
	stages := 0
	for _, stage := range []string{"solve", "basis", "hamiltonian", "circuit", "iteration", "segment", "sample", "final_eval"} {
		if strings.Contains(metricsText, `rasengan_stage_duration_seconds_count{stage="`+stage+`"} 1`) {
			stages++
		}
	}
	if stages < 4 {
		t.Errorf("only %d stage labels on rasengan_stage_duration_seconds, want >= 4:\n%s",
			stages, grepLines(metricsText, "stage_duration"))
	}
	if !strings.Contains(metricsText, "rasengan_solves_running 0") {
		t.Errorf("solves-running gauge did not return to zero:\n%s", grepLines(metricsText, "solves_running"))
	}
	if !strings.Contains(metricsText, "rasengan_queue_depth 0") {
		t.Errorf("queue depth gauge missing:\n%s", grepLines(metricsText, "queue_depth"))
	}
}

// TestCacheHitOmitsTelemetry locks in the payload-determinism rule:
// telemetry rides the job object, so a cache hit replays the identical
// result bytes and simply has no telemetry to show.
func TestCacheHitOmitsTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{Executors: 1})
	body := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":5,"max_iter":30},"wait_ms":30000}`
	_, first, _ := postSolve(t, ts, body)
	if first.Status != api.StatusDone || first.Cached {
		t.Fatalf("first solve: status %s cached %v", first.Status, first.Cached)
	}
	_, second, _ := postSolve(t, ts, body)
	if !second.Cached {
		t.Fatalf("second identical solve not served from cache")
	}
	if len(second.Telemetry) != 0 {
		t.Errorf("cache hit carried telemetry (%s); it must replay result bytes only", second.Telemetry)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("cached result bytes differ from the computed ones")
	}
}

// TestStructuredLogsCarryJobFields wires a JSON slog handler into the
// service and checks the lifecycle records carry job_id and spec_hash.
func TestStructuredLogsCarryJobFields(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(syncWriter{mu: &mu, w: &buf}, nil))
	_, ts := newTestServer(t, Config{Executors: 1, Logger: logger})
	code, sr, _ := postSolve(t, ts,
		`{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":6,"max_iter":20},"wait_ms":30000}`)
	if code != http.StatusOK || sr.Status != api.StatusDone {
		t.Fatalf("solve: code %d status %s error %q", code, sr.Status, sr.Error)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	want := map[string]bool{"job accepted": false, "job running": false, "job done": false}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		if _, tracked := want[msg]; !tracked {
			continue
		}
		if rec["job_id"] != sr.JobID {
			t.Errorf("%q record has job_id %v, want %v", msg, rec["job_id"], sr.JobID)
		}
		if hash, _ := rec["spec_hash"].(string); hash == "" {
			t.Errorf("%q record missing spec_hash: %v", msg, rec)
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("no %q log record emitted; got:\n%s", msg, strings.Join(lines, "\n"))
		}
	}
}

// syncWriter serializes concurrent slog writes from executor goroutines.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
