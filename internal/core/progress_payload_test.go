package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
)

// progressWatch is what a watcher saw: how many records, and the first
// one that broke the fold.
type progressWatch struct {
	seen int
	err  error
}

// watchProgress follows cell the way the SSE handler does: Wait, Load,
// and check that each new record extends the fold — the iteration count
// strictly increases and the best energy never rises. Closing stop ends
// the watch after one last Load.
func watchProgress(cell *obs.ProgressCell, stop <-chan struct{}) <-chan progressWatch {
	out := make(chan progressWatch, 1)
	go func() {
		var w progressWatch
		var last obs.Progress
		var lastSeq uint64
		check := func() {
			p, seq, ok := cell.Load()
			if !ok || seq == lastSeq {
				return
			}
			if lastSeq > 0 && w.err == nil {
				switch {
				case p.Iteration <= last.Iteration:
					w.err = fmt.Errorf("iteration %d after %d", p.Iteration, last.Iteration)
				case p.BestEnergy > last.BestEnergy:
					w.err = fmt.Errorf("best energy rose from %v to %v at iteration %d", last.BestEnergy, p.BestEnergy, p.Iteration)
				}
			}
			last, lastSeq = p, seq
			w.seen++
		}
		for {
			wake := cell.Wait()
			check()
			select {
			case <-stop:
				check()
				out <- w
				return
			case <-wake:
			}
		}
	}()
	return out
}

// TestWatchedProgressKeepsPayload solves F1, K1 and S1 on the noisy
// quebec device with three starts, once bare and once publishing every
// iteration into a live progress cell under a watcher. Publishing must
// not change the wire payload, and the watched stream must keep the
// monotone fold.
func TestWatchedProgressKeepsPayload(t *testing.T) {
	for _, label := range []string{"F1", "K1", "S1"} {
		t.Run(label, func(t *testing.T) {
			b, err := problems.ByLabel(label)
			if err != nil {
				t.Fatal(err)
			}
			p := b.Generate(0)
			opts := quebecOpts()
			bare, err := core.Solve(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("bare solve: %v", err)
			}

			cell := obs.NewProgressCell()
			stop := make(chan struct{})
			watched := watchProgress(cell, stop)
			live := opts
			live.Telemetry.Progress = cell
			res, err := core.Solve(context.Background(), p, live)
			close(stop)
			w := <-watched
			if err != nil {
				t.Fatalf("watched solve: %v", err)
			}
			if !bytes.Equal(payload(t, p, res), payload(t, p, bare)) {
				t.Error("a watched progress cell changed the solve payload")
			}
			if w.err != nil {
				t.Errorf("watched stream broke the fold: %v", w.err)
			}
			if w.seen < 2 {
				t.Errorf("watcher saw %d records, want at least 2", w.seen)
			}
		})
	}
}
