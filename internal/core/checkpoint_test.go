package core_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/service"
)

// checkpointSink captures every checkpoint write, concurrency-safe.
type checkpointSink struct {
	mu     sync.Mutex
	writes [][]byte
	// onWrite, when non-nil, observes each write (used to trigger
	// cancellation mid-solve).
	onWrite func(n int)
}

func (s *checkpointSink) write(data []byte) error {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), data...))
	n := len(s.writes)
	cb := s.onWrite
	s.mu.Unlock()
	if cb != nil {
		cb(n)
	}
	return nil
}

func (s *checkpointSink) last() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.writes) == 0 {
		return nil
	}
	return s.writes[len(s.writes)-1]
}

func (s *checkpointSink) at(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes[i]
}

func (s *checkpointSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.writes)
}

func sampledOpts() core.Options {
	return core.Options{
		MaxIter: 40, // three multi-start slots
		Seed:    17,
		Exec:    core.ExecOptions{Shots: 256, OpsPerSegment: 1, Device: device.Kyiv(), Trajectories: 4},
	}
}

// quebecOpts is sampledOpts on the quebec device model.
func quebecOpts() core.Options {
	opts := sampledOpts()
	opts.Exec.Device = device.Quebec()
	return opts
}

func payload(t *testing.T, p *problems.Problem, res *core.Result) []byte {
	t.Helper()
	data, err := service.MarshalResultPayload(p, res)
	if err != nil {
		t.Fatalf("marshal payload: %v", err)
	}
	return data
}

// TestCheckpointResumePayloadByteIdentical is the checkpoint identity
// test: resuming from any mid-solve checkpoint — exact or sampled-noisy
// config, one worker or many — must yield a wire payload byte-identical
// to the uninterrupted run's. Checkpointing itself must not perturb the
// solve either. F1 runs exact and on kyiv; K1 and S1 run on quebec.
func TestCheckpointResumePayloadByteIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, tc := range []struct {
		name string
		p    *problems.Problem
		opts core.Options
	}{
		{"exact", problems.FLP(1, 0), core.Options{MaxIter: 40, Seed: 17}},
		{"sampled-noisy", problems.FLP(1, 0), sampledOpts()},
		{"K1-quebec", problems.KPP(1, 0), quebecOpts()},
		{"S1-quebec", problems.SCP(1, 0), quebecOpts()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			parallel.SetWorkers(0)
			ref, err := core.Solve(context.Background(), p, tc.opts)
			if err != nil {
				t.Fatalf("reference solve: %v", err)
			}
			want := payload(t, p, ref)

			sink := &checkpointSink{}
			ckOpts := tc.opts
			ckOpts.Checkpoint = &core.CheckpointOptions{Write: sink.write}
			got, err := core.Solve(context.Background(), p, ckOpts)
			if err != nil {
				t.Fatalf("checkpointed solve: %v", err)
			}
			if !bytes.Equal(payload(t, p, got), want) {
				t.Fatal("enabling checkpointing changed the solve payload")
			}
			if sink.count() < 3 {
				t.Fatalf("only %d checkpoint writes", sink.count())
			}

			for _, pick := range []int{0, sink.count() / 2, sink.count() - 1} {
				ck, err := core.ParseCheckpoint(sink.at(pick))
				if err != nil {
					t.Fatalf("parse checkpoint %d: %v", pick, err)
				}
				for _, workers := range []int{1, 8} {
					parallel.SetWorkers(workers)
					ropts := tc.opts
					ropts.Resume = ck
					res, err := core.Solve(context.Background(), p, ropts)
					if err != nil {
						t.Fatalf("resume from write %d (workers=%d): %v", pick, workers, err)
					}
					if !bytes.Equal(payload(t, p, res), want) {
						t.Errorf("resume from write %d (workers=%d): payload diverged", pick, workers)
					}
					if res.Basis != nil {
						t.Errorf("resume from write %d: Basis should be nil (basis construction skipped)", pick)
					}
				}
			}
		})
	}
}

// TestCheckpointInterruptResume exercises the real interruption flow:
// cancel the solve mid-optimization, then resume from the last
// checkpoint the cancelled run managed to write.
func TestCheckpointInterruptResume(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(4)
	p := problems.FLP(1, 0)
	opts := sampledOpts()

	ref, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	want := payload(t, p, ref)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &checkpointSink{onWrite: func(n int) {
		if n == 5 {
			cancel()
		}
	}}
	iopts := opts
	iopts.Checkpoint = &core.CheckpointOptions{Write: sink.write}
	if _, err := core.Solve(ctx, p, iopts); err == nil {
		t.Fatal("interrupted solve should have returned the context error")
	}

	ck, err := core.ParseCheckpoint(sink.last())
	if err != nil {
		t.Fatalf("parse last checkpoint: %v", err)
	}
	ropts := opts
	ropts.Resume = ck
	res, err := core.Solve(context.Background(), p, ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(payload(t, p, res), want) {
		t.Error("interrupted+resumed payload differs from uninterrupted run")
	}
}

// TestCheckpointEveryThrottle: Every=k must reduce write frequency
// without changing the solve.
func TestCheckpointEveryThrottle(t *testing.T) {
	p := problems.FLP(1, 0)
	opts := core.Options{MaxIter: 40, Seed: 17}
	every1 := &checkpointSink{}
	o1 := opts
	o1.Checkpoint = &core.CheckpointOptions{Write: every1.write}
	r1, err := core.Solve(context.Background(), p, o1)
	if err != nil {
		t.Fatal(err)
	}
	every5 := &checkpointSink{}
	o5 := opts
	o5.Checkpoint = &core.CheckpointOptions{Write: every5.write, Every: 5}
	r5, err := core.Solve(context.Background(), p, o5)
	if err != nil {
		t.Fatal(err)
	}
	if every5.count() >= every1.count() {
		t.Errorf("Every=5 wrote %d times, Every=1 wrote %d", every5.count(), every1.count())
	}
	if !bytes.Equal(payload(t, p, r1), payload(t, p, r5)) {
		t.Error("Every throttle changed the solve payload")
	}
}

// TestCheckpointFutureVersionRejected (satellite): a checkpoint written
// by a newer format version must be refused with a clear error, not
// misinterpreted.
func TestCheckpointFutureVersionRejected(t *testing.T) {
	data := []byte(`{"version": 99, "problem": "x", "num_vars": 3, "starts": [{"done": true}]}`)
	_, err := core.ParseCheckpoint(data)
	if err == nil {
		t.Fatal("version 99 checkpoint parsed without error")
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Errorf("error should say the file is newer than this build: %v", err)
	}
}

// TestCheckpointMismatchRefused (satellite): resuming under a different
// problem or different solver options must be refused.
func TestCheckpointMismatchRefused(t *testing.T) {
	p := problems.FLP(1, 0)
	opts := core.Options{MaxIter: 40, Seed: 17}
	sink := &checkpointSink{}
	copts := opts
	copts.Checkpoint = &core.CheckpointOptions{Write: sink.write}
	if _, err := core.Solve(context.Background(), p, copts); err != nil {
		t.Fatal(err)
	}
	ck, err := core.ParseCheckpoint(sink.last())
	if err != nil {
		t.Fatal(err)
	}

	// Different problem: constraint fingerprint mismatch.
	other := problems.FLP(2, 0)
	oopts := opts
	oopts.Resume = ck
	if _, err := core.Solve(context.Background(), other, oopts); err == nil {
		t.Error("resume onto a different problem succeeded")
	}

	// Different options: options fingerprint mismatch.
	seedOpts := opts
	seedOpts.Seed = 99
	seedOpts.Resume = ck
	if _, err := core.Solve(context.Background(), p, seedOpts); err == nil {
		t.Error("resume under different solver options succeeded")
	} else if !strings.Contains(err.Error(), "options") {
		t.Errorf("error should name the options mismatch: %v", err)
	}
}

// TestCheckpointExcludedFromFingerprint: Checkpoint/Resume must not
// change the canonical options encoding — a checkpointed solve and a
// plain one are cache-key identical.
func TestCheckpointExcludedFromFingerprint(t *testing.T) {
	plain := core.Options{MaxIter: 40, Seed: 17}
	withCk := plain
	withCk.Checkpoint = &core.CheckpointOptions{Write: func([]byte) error { return nil }}
	withCk.Resume = &core.Checkpoint{}
	if core.OptionsFingerprint(plain) != core.OptionsFingerprint(withCk) {
		t.Error("Checkpoint/Resume leaked into the options fingerprint")
	}
}
