package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/obs"
	"rasengan/internal/store"
)

// Live introspection: the SSE stream of one job's progress, the
// /debug/events dump of the flight-recorder ring, and the slow-solve
// watchdog that snapshots anomalies to disk. Everything here observes
// running solves through the job's progress cell and the shared event
// ring; nothing feeds back into a solve.

// Events exposes the server's flight-recorder ring (the serving binary
// mounts tooling on it; tests inspect it).
func (s *Server) Events() *obs.EventRing { return s.events }

// DebugEventsHandler serves the flight-recorder window as JSON —
// mounted at /debug/events on the debug listener, next to pprof.
func (s *Server) DebugEventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.events.WriteJSON(w)
	})
}

// handleJobEvents streams one job's live progress as Server-Sent Events:
//
//	event: progress   data: one obs.Progress record (folded, monotone)
//	event: done       data: {"status": <terminal status>}
//	: heartbeat       (comment line, every Config.SSEHeartbeat while idle)
//
// The stream is lossy-but-fresh: a slow consumer skips intermediate
// records instead of buffering them, so fan-out per subscriber is one
// goroutine and zero queued memory. Subscribers beyond
// Config.MaxEventStreams get 503. The stream ends after the job reaches
// a terminal state (emitting the final progress and the done event) or
// when the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	select {
	case s.streamSem <- struct{}{}:
		defer func() { <-s.streamSem }()
	default:
		api.WriteRetry(w, http.StatusServiceUnavailable, 1,
			"too many event streams (limit %d); retry later", cap(s.streamSem))
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer SSE
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	flush := func() { _ = rc.Flush() }
	flush() // commit headers so clients see the stream is live

	heartbeat := time.NewTicker(s.cfg.SSEHeartbeat)
	defer heartbeat.Stop()

	var lastSeq uint64
	emit := func() bool {
		p, seq, ok := j.progress.Load()
		if !ok || seq == lastSeq {
			return true
		}
		lastSeq = seq
		data, err := json.Marshal(p)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data); err != nil {
			return false
		}
		flush()
		return true
	}

	for {
		// Take the wait edge BEFORE reading, so a publish landing between
		// the read and the select wakes this pass instead of being lost.
		wake := j.progress.Wait()
		if !emit() {
			return
		}
		select {
		case <-j.done:
			emit() // final record, if one arrived after the last pass
			v := j.snapshot()
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", v.Status)
			flush()
			return
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flush()
		}
	}
}

// CaptureVersion versions the anomaly-capture directory layout
// (capture.json metadata + events.json + trace.json + progress.json).
const CaptureVersion = 1

// watchJob arms the anomaly watchdog for one executing job. It watches
// the job's progress cell and, on the first trigger — no published
// iteration for Config.StallWindow ("stall"), or the solve still running
// past Config.SolveSLO ("slo") — snapshots the flight-recorder window,
// the solve's Chrome trace so far, and the collected progress series
// into CaptureDir/<job-id>/, counts it, and records an
// obs.EventAnomalyCapture. At most one capture per job. The returned
// stop func ends the watch; with both windows disabled it is a no-op.
func (s *Server) watchJob(j *job, rec *obs.Recorder, specHash string) (stop func()) {
	stall, slo := s.cfg.StallWindow, s.cfg.SolveSLO
	if stall <= 0 && slo <= 0 {
		return func() {}
	}
	stopped := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var series []obs.Progress
		var stallC <-chan time.Time
		var stallTimer *time.Timer
		if stall > 0 {
			stallTimer = time.NewTimer(stall)
			defer stallTimer.Stop()
			stallC = stallTimer.C
		}
		var sloC <-chan time.Time
		if slo > 0 {
			sloTimer := time.NewTimer(slo)
			defer sloTimer.Stop()
			sloC = sloTimer.C
		}
		captured := false
		capture := func(reason string) {
			if captured {
				return
			}
			captured = true
			s.captureAnomaly(j, rec, specHash, reason, series)
		}
		var lastSeq uint64
		for {
			wake := j.progress.Wait()
			if p, seq, ok := j.progress.Load(); ok && seq != lastSeq {
				lastSeq = seq
				series = append(series, p)
				if stallTimer != nil {
					// Progress arrived: the stall clock restarts from now.
					if !stallTimer.Stop() {
						select {
						case <-stallTimer.C:
						default:
						}
					}
					stallTimer.Reset(stall)
				}
			}
			select {
			case <-stopped:
				return
			case <-wake:
			case <-stallC:
				capture("stall")
				stallC = nil // one stall trigger per job
			case <-sloC:
				capture("slo")
				sloC = nil
			}
		}
	}()
	return func() {
		close(stopped)
		<-finished // the capture writer must not race job settlement
	}
}

// captureAnomaly writes one watchdog snapshot. Every file lands with the
// atomic-write helpers, so a capture directory never holds torn JSON —
// crash mid-capture leaves whole files or none.
func (s *Server) captureAnomaly(j *job, rec *obs.Recorder, specHash, reason string, series []obs.Progress) {
	s.reg.CounterWith("rasengan_anomaly_captures_total",
		"Anomaly snapshots taken by the slow-solve watchdog.", [2]string{"reason", reason}).Inc()
	dir := ""
	if s.cfg.CaptureDir != "" {
		dir = filepath.Join(s.cfg.CaptureDir, j.id)
	}
	s.events.Record(obs.SevWarn, obs.EventAnomalyCapture, j.id, specHash,
		fmt.Sprintf("reason %s after %d iterations", reason, len(series)))
	s.log.Warn("anomaly capture", "job_id", j.id, "spec_hash", specHash,
		"reason", reason, "dir", dir)
	if dir == "" {
		return // no capture directory configured: counted and logged only
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.log.Warn("anomaly capture failed", "job_id", j.id, "error", err.Error())
		return
	}
	writeFile := func(name string, render func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := render(&buf); err == nil {
			err = store.WriteFileAtomic(filepath.Join(dir, name), buf.Bytes(), 0o644)
			if err == nil {
				return
			}
			s.log.Warn("anomaly capture write failed", "job_id", j.id, "file", name, "error", err.Error())
			return
		}
	}
	meta := map[string]any{
		"version":          CaptureVersion,
		"job_id":           j.id,
		"spec_hash":        specHash,
		"reason":           reason,
		"captured_unix_ms": time.Now().UnixMilli(),
		"stall_window_ms":  s.cfg.StallWindow.Milliseconds(),
		"solve_slo_ms":     s.cfg.SolveSLO.Milliseconds(),
	}
	writeFile("capture.json", func(buf *bytes.Buffer) error {
		enc := json.NewEncoder(buf)
		enc.SetEscapeHTML(false)
		return enc.Encode(meta)
	})
	writeFile("events.json", func(buf *bytes.Buffer) error {
		return s.events.WriteJSON(buf)
	})
	writeFile("trace.json", func(buf *bytes.Buffer) error {
		return rec.WriteChromeTrace(buf)
	})
	writeFile("progress.json", func(buf *bytes.Buffer) error {
		if series == nil {
			series = []obs.Progress{}
		}
		enc := json.NewEncoder(buf)
		enc.SetEscapeHTML(false)
		return enc.Encode(map[string]any{"version": CaptureVersion, "progress": series})
	})
}
