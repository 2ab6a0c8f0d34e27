package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rasengan/internal/api"
)

func testJob(id string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{id: id, ctx: ctx, cancel: cancel, status: api.StatusQueued, done: make(chan struct{})}
}

func TestQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	q := newJobQueue(2, 1, func(j *job) {
		started <- struct{}{}
		<-block
		j.finish(api.StatusDone, nil, "")
	})
	// One job occupies the executor, two fill the queue slots.
	if err := q.Submit(testJob("a")); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	<-started // the executor holds "a"; both queue slots are free
	if err := q.Submit(testJob("b")); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := q.Submit(testJob("c")); err != nil {
		t.Fatalf("submit c: %v", err)
	}
	if err := q.Submit(testJob("d")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to full queue: err = %v, want ErrQueueFull", err)
	}
	if q.Depth() != 2 {
		t.Errorf("depth = %d, want 2", q.Depth())
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestQueueDrainRunsEveryAcceptedJob(t *testing.T) {
	var ran atomic.Int64
	q := newJobQueue(64, 3, func(j *job) {
		time.Sleep(time.Millisecond)
		ran.Add(1)
		j.finish(api.StatusDone, nil, "")
	})
	const n = 40
	accepted := 0
	for i := 0; i < n; i++ {
		if err := q.Submit(testJob("j")); err == nil {
			accepted++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if int(ran.Load()) != accepted {
		t.Errorf("ran %d of %d accepted jobs", ran.Load(), accepted)
	}
	// Intake must stay closed after drain.
	if err := q.Submit(testJob("late")); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

func TestQueueDrainTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	q := newJobQueue(4, 1, func(j *job) { <-block })
	if err := q.Submit(testJob("stuck")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain of a stuck job: err = %v, want deadline exceeded", err)
	}
}

func TestQueueDrainIdempotent(t *testing.T) {
	q := newJobQueue(4, 2, func(j *job) { j.finish(api.StatusDone, nil, "") })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}
