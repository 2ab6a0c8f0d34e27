package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
)

// job is one accepted solve. Its result bytes are the deterministic
// payload of result.go; the same key always yields the same bytes.
type job struct {
	id string
	// seq is the monotone submit sequence the id was minted from (parsed
	// back out of the id on journal replay). Listings sort on it: the id
	// string is zero-padded to 8 digits, so lexicographic order silently
	// diverges from submission order past job-99999999.
	seq uint64
	key string // spec hash + config fingerprint (cache key)

	// family/scale identify the generator bucket for warm-start
	// recording; empty/zero for inline specs.
	family string
	scale  int

	problem *problems.Problem
	opts    core.Options

	ctx    context.Context
	cancel context.CancelFunc

	// progress is the job's live-introspection cell: the solver folds one
	// record per optimizer iteration into it, and the job view, the SSE
	// stream, and the stall watchdog read it. Nil on cache-hit and
	// journal-restored terminal jobs (they never run).
	progress *obs.ProgressCell

	mu       sync.Mutex
	status   api.Status
	result   []byte
	errMsg   string
	cached   bool
	accepted time.Time
	// telemetry is the winning start's convergence trace, marshaled once.
	// It lives on the job, never in the result bytes: the cached payload
	// must stay byte-identical for one key, and these records carry wall
	// times.
	telemetry json.RawMessage

	// settled marks the job as counted in the store's retention ring;
	// guarded by the store's mutex, not the job's.
	settled bool

	done chan struct{}
}

// snapshot is the job's externally visible view.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	v := api.Job{
		JobID:     j.id,
		Status:    j.status,
		Cached:    j.cached,
		Error:     j.errMsg,
		Result:    j.result,
		Telemetry: j.telemetry,
	}
	j.mu.Unlock()
	// Live progress rides only non-terminal views: terminal responses are
	// summarized by the deterministic result payload and the convergence
	// telemetry, and must not grow nondeterministic live-state fields.
	if v.Status == api.StatusQueued || v.Status == api.StatusRunning {
		if p, _, ok := j.progress.Load(); ok {
			// A record of finite numbers always marshals; a failure would
			// only drop the progress field from this view.
			v.Progress, _ = json.Marshal(p)
		}
	}
	return v
}

// setConvergence attaches the solve's convergence telemetry; call before
// finish so a snapshot taken after the done signal always sees it.
func (j *job) setConvergence(c []core.IterationTelemetry) {
	var raw json.RawMessage
	if len(c) > 0 {
		// Finite numbers always marshal; a failure would only leave the
		// job without a trace, never fail the job.
		raw, _ = json.Marshal(c)
	}
	j.mu.Lock()
	j.telemetry = raw
	j.mu.Unlock()
}

func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != api.StatusQueued {
		return false
	}
	j.status = api.StatusRunning
	return true
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(status api.Status, result []byte, errMsg string) {
	j.mu.Lock()
	if j.status == api.StatusDone || j.status == api.StatusFailed || j.status == api.StatusCanceled {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// jobStore tracks jobs by id, deduplicates in-flight work by content
// address (single-flight), and bounds how many terminal jobs it retains.
type jobStore struct {
	mu       sync.Mutex
	seq      uint64
	byID     map[string]*job
	inflight map[string]*job // key → queued/running job
	// retained is a fixed-capacity ring of terminal job ids in completion
	// order: head indexes the oldest, count ≤ retention. A ring rather
	// than an append-and-reslice slice because retained[1:] keeps the
	// evicted id's backing memory reachable for the life of the slice —
	// under sustained traffic that pinned every id ever retained.
	retained  []string
	head      int
	count     int
	retention int
}

func newJobStore(retention int) *jobStore {
	if retention < 1 {
		retention = 1
	}
	return &jobStore{
		byID:      map[string]*job{},
		inflight:  map[string]*job{},
		retained:  make([]string, retention),
		retention: retention,
	}
}

// create registers a new job for key, or returns the already in-flight
// job carrying the same key (joined == true).
func (s *jobStore) create(base context.Context, key string, p *problems.Problem, opts core.Options, deadline time.Duration) (j *job, joined bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.inflight[key]; ok {
		return existing, true
	}
	s.seq++
	ctx, cancel := context.WithTimeout(base, deadline)
	j = &job{
		id:       fmt.Sprintf("job-%08d", s.seq),
		seq:      s.seq,
		key:      key,
		problem:  p,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		progress: obs.NewProgressCell(),
		status:   api.StatusQueued,
		accepted: time.Now(),
		done:     make(chan struct{}),
	}
	s.byID[j.id] = j
	s.inflight[key] = j
	return j, false
}

// createDone registers an already-terminal job (cache hits get a job id
// too, so GET /v1/jobs is uniform).
func (s *jobStore) createDone(result []byte, cached bool) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := terminalJob(fmt.Sprintf("job-%08d", s.seq), s.seq, api.StatusDone, result, "")
	j.cached = cached
	s.byID[j.id] = j
	s.retain(j.id)
	return j
}

// Jobs created terminal (cache hits, journal restores) never run, so
// they all share one cancelled context and one closed done channel.
var (
	terminalCtx, terminalCancel = func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}()
	terminalDone = func() chan struct{} {
		c := make(chan struct{})
		close(c)
		return c
	}()
)

// terminalJob builds a job that is terminal from the start; finish
// never runs on it, so the shared done channel is never closed twice.
func terminalJob(id string, seq uint64, status api.Status, result []byte, errMsg string) *job {
	return &job{
		id:      id,
		seq:     seq,
		ctx:     terminalCtx,
		cancel:  terminalCancel,
		status:  status,
		result:  result,
		errMsg:  errMsg,
		settled: true,
		done:    terminalDone,
	}
}

// settle removes the job from the in-flight index once terminal and
// applies the retention bound.
func (s *jobStore) settle(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.settled {
		// Settling twice (e.g. a failed Submit path racing a worker) must
		// not occupy two ring slots for one job.
		return
	}
	j.settled = true
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.retain(j.id)
}

// retain must be called with s.mu held.
func (s *jobStore) retain(id string) {
	if s.count < s.retention {
		s.retained[(s.head+s.count)%s.retention] = id
		s.count++
		return
	}
	delete(s.byID, s.retained[s.head])
	s.retained[s.head] = id
	s.head = (s.head + 1) % s.retention
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// lookupInflight returns the queued/running job carrying key, if any.
// The HTTP layer consults it before reserving a queue slot so coalesced
// duplicates never contend for capacity.
func (s *jobStore) lookupInflight(key string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.inflight[key]
	return j, ok
}

// seqFromID recovers the submit sequence embedded in a job id; 0 for
// foreign ids (which then sort first, by id, among themselves).
func seqFromID(id string) uint64 {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// bumpSeq advances the id sequence to at least n, the largest sequence
// recovered from the journal, so jobs accepted after a restart never
// collide with journaled ones.
func (s *jobStore) bumpSeq(n uint64) {
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// restoreTerminal registers a terminal job under its original id and
// sequence (journal recovery: the job stays queryable across restarts).
func (s *jobStore) restoreTerminal(id string, seq uint64, status api.Status, result []byte, errMsg string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := terminalJob(id, seq, status, result, errMsg)
	s.byID[id] = j
	s.retain(id)
	return j
}

// restoreActive registers a recovered queued job under its original id
// and sequence; the caller submits it to the queue.
func (s *jobStore) restoreActive(base context.Context, id string, seq uint64, key string, p *problems.Problem, opts core.Options, deadline time.Duration) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, cancel := context.WithTimeout(base, deadline)
	j := &job{
		id:       id,
		seq:      seq,
		key:      key,
		problem:  p,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		progress: obs.NewProgressCell(),
		status:   api.StatusQueued,
		accepted: time.Now(),
		done:     make(chan struct{}),
	}
	s.byID[id] = j
	s.inflight[key] = j
	return j
}

// list returns job summaries in submission order, optionally filtered
// by status, with offset/limit pagination. total is the filtered count
// before pagination. Sorting on the numeric submit sequence (not the id
// string, and certainly not map iteration order) keeps page contents
// stable across journal replay and restarts.
func (s *jobStore) list(status api.Status, offset, limit int) (views []api.Job, total int) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.byID))
	for _, j := range s.byID {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].seq != jobs[k].seq {
			return jobs[i].seq < jobs[k].seq
		}
		return jobs[i].id < jobs[k].id
	})
	views = []api.Job{}
	for _, j := range jobs {
		// Listings are summaries: no payload, telemetry or progress.
		j.mu.Lock()
		v := api.Job{JobID: j.id, Status: j.status, Cached: j.cached, Error: j.errMsg}
		j.mu.Unlock()
		if status != "" && v.Status != status {
			continue
		}
		total++
		if total <= offset || len(views) >= limit {
			continue
		}
		views = append(views, v)
	}
	return views, total
}
