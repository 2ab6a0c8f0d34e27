package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
)

// --- lruCache unit coverage ---

func TestLRUCachePutRefresh(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("a1"), 0)
	c.Put("b", []byte("b1"), 0)
	// Refreshing "a" must replace its bytes AND move it to the front, so
	// the next eviction takes "b".
	c.Put("a", []byte("a2"), 0)
	if v, _, ok := c.Get("a"); !ok || string(v) != "a2" {
		t.Fatalf(`Get("a") = %q, %v; want "a2"`, v, ok)
	}
	c.Put("c", []byte("c1"), 0)
	if _, _, ok := c.Get("b"); ok {
		t.Error(`"b" survived eviction; refresh did not promote "a"`)
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error(`refreshed "a" was evicted`)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1, -256} {
		c := newLRUCache(capacity)
		c.Put("k", []byte("v"), 0)
		if _, _, ok := c.Get("k"); ok {
			t.Errorf("capacity %d: disabled cache returned a hit", capacity)
		}
		if c.Len() != 0 {
			t.Errorf("capacity %d: Len() = %d, want 0", capacity, c.Len())
		}
		hits, misses, evictions := c.Stats()
		if hits != 0 || misses != 1 || evictions != 0 {
			t.Errorf("capacity %d: stats = %d/%d/%d, want 0/1/0", capacity, hits, misses, evictions)
		}
	}
}

func TestLRUCacheEvictionAccounting(t *testing.T) {
	c := newLRUCache(3)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, 0)
		// Interleave Gets so recency order differs from insertion order.
		c.Get("k0")
	}
	// 5 inserts into 3 slots → exactly 2 evictions, regardless of the
	// interleaved Gets (hits must never count as evictions).
	_, _, evictions := c.Stats()
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	if c.Len() != 3 {
		t.Errorf("Len() = %d, want 3", c.Len())
	}
	// Re-putting a resident key must not evict anything.
	before := evictions
	c.Put("k4", []byte("new"), 0)
	if _, _, after := c.Stats(); after != before {
		t.Errorf("refresh changed eviction count %d → %d", before, after)
	}
}

// --- jobStore retention ---

// TestJobStoreRetentionBounded settles far more jobs than the retention
// cap and asserts the id index stays bounded — the regression test for
// the retained-slice reslicing that pinned every evicted id.
func TestJobStoreRetentionBounded(t *testing.T) {
	const retention = 4
	s := newJobStore(retention)
	var ids []string
	for i := 0; i < 25; i++ {
		j, joined := s.create(context.Background(), fmt.Sprintf("key-%d", i), nil, core.Options{}, time.Minute)
		if joined {
			t.Fatalf("job %d unexpectedly joined", i)
		}
		j.finish(api.StatusDone, nil, "")
		s.settle(j)
		ids = append(ids, j.id)
	}
	s.mu.Lock()
	stored := len(s.byID)
	s.mu.Unlock()
	if stored > retention {
		t.Fatalf("byID holds %d jobs, retention is %d", stored, retention)
	}
	// The newest `retention` ids remain queryable; everything older is gone.
	for _, id := range ids[len(ids)-retention:] {
		if _, ok := s.get(id); !ok {
			t.Errorf("recent job %s evicted too early", id)
		}
	}
	for _, id := range ids[:len(ids)-retention] {
		if _, ok := s.get(id); ok {
			t.Errorf("old job %s still resident past retention", id)
		}
	}
}

func TestJobStoreSettleIdempotent(t *testing.T) {
	s := newJobStore(8)
	j, _ := s.create(context.Background(), "k", nil, core.Options{}, time.Minute)
	j.finish(api.StatusCanceled, nil, "canceled")
	s.settle(j)
	s.settle(j) // double settle must not occupy a second ring slot
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != 1 {
		t.Errorf("ring count = %d after double settle, want 1", s.count)
	}
}

// --- queue drain ---

// TestRepeatedDrainNoGoroutineLeak calls Drain many times with
// already-expired contexts while a job keeps the queue pending, then
// checks the process goroutine count: the old implementation spawned one
// stuck waiter per call.
func TestRepeatedDrainNoGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	q := newJobQueue(4, 1, func(*job) { <-release })
	if err := q.Submit(&job{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the executor pick the job up

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if err := q.Drain(expired); err == nil {
			t.Fatal("Drain with expired ctx returned nil while a job is pending")
		}
	}
	runtime.Gosched()
	time.Sleep(20 * time.Millisecond)
	after := runtime.NumGoroutine()
	if grown := after - before; grown > 5 {
		t.Fatalf("goroutines grew by %d across 100 Drain calls; waiter is not single-shot", grown)
	}

	close(release)
	ctx, cancelOK := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelOK()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("final drain: %v", err)
	}
}

// --- end-to-end cancellation and panic isolation against the real solver ---

func installServiceHook(t *testing.T, fn func(stage string)) {
	t.Helper()
	core.SetFaultHook(fn)
	t.Cleanup(func() { core.SetFaultHook(nil) })
}

// TestDeadlineFreesExecutor is the acceptance test of the tentpole: with
// one executor and a solve slowed to many times its deadline, the
// deadline must stop the solve cooperatively and free the executor for
// the next job — under the old detached-goroutine design the worker was
// free but the solve kept burning a core; now neither happens.
func TestDeadlineFreesExecutor(t *testing.T) {
	installServiceHook(t, func(stage string) {
		if stage == core.FaultIteration {
			time.Sleep(3 * time.Millisecond)
		}
	})
	_, ts := newTestServer(t, Config{Executors: 1, QueueCapacity: 8})

	// Job A: big budget, 150ms deadline → must die at the deadline.
	codeA, srA, _ := postSolve(t, ts,
		`{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":1,"max_iter":300},"timeout_ms":150}`)
	if codeA != http.StatusAccepted {
		t.Fatalf("job A: code %d", codeA)
	}
	// Job B rides the same executor; if A's deadline frees it, B's tiny
	// budget finishes well inside the wait window.
	start := time.Now()
	codeB, srB, _ := postSolve(t, ts,
		`{"spec":{"family":"KPP","scale":1,"case":0},"config":{"seed":1,"max_iter":4},"wait_ms":30000}`)
	if codeB != http.StatusOK || srB.Status != api.StatusDone {
		t.Fatalf("job B after deadline-bound job A: code %d status %s error %q", codeB, srB.Status, srB.Error)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("job B took %v; executor was not freed promptly", elapsed)
	}

	// Job A must have settled as a deadline failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got api.Job
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/jobs/"+srA.JobID)), &got); err != nil {
			t.Fatal(err)
		}
		if got.Status == api.StatusFailed {
			if !strings.Contains(got.Error, "deadline") {
				t.Errorf("job A error %q, want deadline", got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_jobs_cancelled_total 1") {
		t.Errorf("cancelled counter wrong:\n%s", grepLines(metricsText, "cancelled"))
	}
	// The abandoned solve must not pollute the duration histogram: only
	// job B contributes a sample.
	if !strings.Contains(metricsText, "rasengan_solve_duration_seconds_count 1") {
		t.Errorf("solve duration counted a cancelled job:\n%s", grepLines(metricsText, "solve_duration_seconds_count"))
	}
}

// TestPanicIsolationKeepsServerHealthy injects a panic into the first
// solve and asserts the blast radius is exactly one job: the job fails
// with a panic error, the panic counter increments, /healthz stays OK,
// and an identical resubmission succeeds.
func TestPanicIsolationKeepsServerHealthy(t *testing.T) {
	var once sync.Once
	installServiceHook(t, func(stage string) {
		if stage == core.FaultIteration {
			once.Do(func() { panic("injected service fault") })
		}
	})
	_, ts := newTestServer(t, Config{Executors: 1})

	req := `{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":2,"max_iter":20},"wait_ms":30000}`
	code1, sr1, _ := postSolve(t, ts, req)
	if code1 != http.StatusOK || sr1.Status != api.StatusFailed {
		t.Fatalf("poisoned job: code %d status %s error %q, want failed", code1, sr1.Status, sr1.Error)
	}
	if !strings.Contains(sr1.Error, "panic") {
		t.Errorf("failed job error %q does not mention the panic", sr1.Error)
	}

	if raw := getBody(t, ts.URL+"/healthz"); !strings.Contains(raw, `"status":"ok"`) {
		t.Fatalf("healthz degraded after solver panic: %s", raw)
	}
	metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "rasengan_solver_panics_total 1") {
		t.Errorf("panic counter wrong:\n%s", grepLines(metricsText, "panic"))
	}

	// Same request again: the hook has fired once, so this one completes —
	// the executor and pool survived the panic.
	code2, sr2, _ := postSolve(t, ts, req)
	if code2 != http.StatusOK || sr2.Status != api.StatusDone {
		t.Fatalf("resubmission after panic: code %d status %s error %q", code2, sr2.Status, sr2.Error)
	}
}
