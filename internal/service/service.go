package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// SolveFunc runs one solve. The default implementation calls core.Solve;
// tests substitute a stub to control timing and results.
type SolveFunc func(ctx context.Context, p *problems.Problem, opts core.Options) (*core.Result, error)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// QueueCapacity bounds how many accepted jobs may wait for an
	// executor (default 64). A full queue answers 429.
	QueueCapacity int
	// Executors is how many jobs run concurrently (default 2). Each
	// executing solve additionally fans its inner loops across the shared
	// internal/parallel pool, so this bounds jobs, not cores.
	Executors int
	// WorkerBudget is the total compute budget leased out across
	// concurrently executing solves (default: the parallel package's
	// worker count). Each executing job holds a lease; the waterfilling
	// scheduler grants 1 job the whole budget and N jobs ~budget/N each,
	// renegotiated at optimizer-iteration boundaries. Lease width never
	// changes results — the parallel primitives are bit-identical at any
	// width — it only stops N jobs from oversubscribing the cores N-fold.
	WorkerBudget int
	// MaxBatch caps the item count of POST /v1/solve/batch (default 16).
	MaxBatch int
	// ShedWatermark, in (0,1), starts shedding new work once queued plus
	// reserved slots reach that fraction of QueueCapacity, keeping
	// headroom for retries and coalesced bursts. 0 (or ≥1) disables
	// shedding: only a literally full queue rejects.
	ShedWatermark float64
	// CacheEntries bounds the result cache (default 256); 0 keeps the
	// default, negative disables caching.
	CacheEntries int
	// DefaultTimeout caps a job's time from acceptance to completion
	// when the request does not set timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms (default 5m).
	MaxTimeout time.Duration
	// MaxIter caps the per-request optimizer iteration budget
	// (default 300).
	MaxIter int
	// MaxVars rejects problems wider than this many variables
	// (default 40 — sparse-simulator-friendly; raise for bigger
	// deployments).
	MaxVars int
	// JobRetention bounds how many terminal jobs stay queryable via
	// GET /v1/jobs (default 1024).
	JobRetention int
	// DataDir, when non-empty, turns on the durability layer: accepted
	// jobs are journaled to a WAL under this directory, result payloads
	// land in a content-addressed blob store, and on startup the journal
	// replays — terminal jobs come back queryable, interrupted jobs are
	// re-enqueued under their original ids, and the result cache is
	// rehydrated from blobs. The directory also holds the warm-start
	// parameter store. Empty keeps the server fully in-memory.
	// Servers with a DataDir must be built with Open (New panics on a
	// persistence failure).
	DataDir string
	// WarmStartCapacity bounds the warm-start parameter store (default
	// 4096 vectors; only meaningful with DataDir set).
	WarmStartCapacity int
	// Engine is the server-wide execution engine (core.EngineMap or
	// core.EngineCompiled; empty = core default) applied to every solve.
	// It is deliberately not part of the request schema or the cache key:
	// the engines are bit-identical, so one cached payload serves both.
	Engine string
	// Logger receives structured job-lifecycle records (accepted, running,
	// done/failed/cancelled) with job_id/spec_hash/stage fields. Nil
	// discards them; the serving binary passes a JSON handler.
	Logger *slog.Logger
	// EventRingSize bounds the flight-recorder event ring (default
	// obs.DefaultEventRingSize; the ring keeps the most recent N events).
	EventRingSize int
	// MaxEventStreams bounds concurrent GET /v1/jobs/{id}/events SSE
	// subscribers across all jobs (default 32); excess requests get 503.
	MaxEventStreams int
	// SSEHeartbeat is the idle keep-alive interval of the SSE stream
	// (default 15s; tests shrink it).
	SSEHeartbeat time.Duration
	// StallWindow, when positive, arms the per-job stall watchdog: a
	// running solve that publishes no iteration progress for this long is
	// snapshotted into the capture directory (reason "stall"). 0 disables.
	StallWindow time.Duration
	// SolveSLO, when positive, is the solve-latency SLO: a solve still
	// running past it is snapshotted once (reason "slo"). 0 disables.
	SolveSLO time.Duration
	// CaptureDir is where anomaly captures land, one directory per job id.
	// Empty defaults to DataDir/captures when DataDir is set; with neither,
	// the watchdog still counts and records anomalies but writes no files.
	CaptureDir string
	// Solve substitutes the solver implementation (tests only).
	Solve SolveFunc
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 64
	}
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	if c.MaxVars == 0 {
		c.MaxVars = 40
	}
	if c.JobRetention == 0 {
		c.JobRetention = 1024
	}
	if c.WorkerBudget == 0 {
		c.WorkerBudget = parallel.Workers()
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.EventRingSize == 0 {
		c.EventRingSize = obs.DefaultEventRingSize
	}
	if c.MaxEventStreams == 0 {
		c.MaxEventStreams = 32
	}
	if c.SSEHeartbeat == 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.CaptureDir == "" && c.DataDir != "" {
		c.CaptureDir = filepath.Join(c.DataDir, "captures")
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Solve == nil {
		c.Solve = core.Solve
	}
	return c
}

// Server is the solve service: HTTP handlers over a bounded job queue, a
// content-addressed result cache, and Prometheus-text metrics.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	cache   *lruCache
	jobs    *jobStore
	queue   *jobQueue
	persist *persistence // nil without Config.DataDir

	// budget leases compute to executing jobs (see Config.WorkerBudget);
	// admission turns observed service times into Retry-After hints.
	budget    *parallel.Budget
	admission admissionEstimator

	// events is the flight recorder (see obs.EventRing); streamSem bounds
	// concurrent SSE subscribers (Config.MaxEventStreams).
	events    *obs.EventRing
	streamSem chan struct{}

	// warmDims memoizes the schedule parameter count per (spec hash,
	// schedule-shaping options) so warm-start dimension validation does
	// not rebuild the basis and schedule on every lookup.
	warmDims sync.Map // string → int

	// problemsJSON is the GET /v1/problems body, built on the first
	// request: a server that is never asked builds nothing.
	problemsOnce sync.Once
	problemsJSON []byte

	log *slog.Logger

	solveDuration  metrics.Histogram
	cacheHits      metrics.Counter
	cacheMisses    metrics.Counter
	jobsSubmitted  metrics.Counter
	jobsCompleted  metrics.Counter
	jobsFailed     metrics.Counter
	jobsCancelled  metrics.Counter
	jobsCoalesced  metrics.Counter
	rejectedFull   metrics.Counter
	rejectedDrain  metrics.Counter
	jobsShed       metrics.Counter
	batchRequests  metrics.Counter
	warmDimSkips   metrics.Counter
	solverPanics   metrics.Counter
	jobsRecovered  metrics.Counter
	warmHitsExact  metrics.Counter
	warmHitsFamily metrics.Counter
	warmMisses     metrics.Counter
	inflight       metrics.Gauge
	solvesRunning  metrics.Gauge
}

// New builds a server and starts its executor goroutines. Call Drain to
// stop accepting work and wait for accepted jobs. New panics if
// Config.DataDir is set and the durable stores cannot be opened; use
// Open for error handling.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic("service: " + err.Error())
	}
	return s
}

// Open builds a server, opening and replaying the durability layer when
// Config.DataDir is set. Call Drain then Close to shut down cleanly.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		cache: newLRUCache(cfg.CacheEntries),
		jobs:  newJobStore(cfg.JobRetention),
	}
	s.queue = newJobQueue(cfg.QueueCapacity, cfg.Executors, s.runJob)
	s.budget = parallel.NewBudget(cfg.WorkerBudget)
	s.log = cfg.Logger
	s.events = obs.NewEventRing(cfg.EventRingSize)
	s.streamSem = make(chan struct{}, cfg.MaxEventStreams)

	r := s.reg
	s.solveDuration = r.Histogram("rasengan_solve_duration_seconds", "Executor time per job.", nil)
	s.cacheHits = r.Counter("rasengan_cache_hits_total", "Solve requests answered from the result cache.")
	s.cacheMisses = r.Counter("rasengan_cache_misses_total", "Solve requests that required computation.")
	s.jobsSubmitted = r.Counter("rasengan_jobs_submitted_total", "Jobs accepted into the queue.")
	s.jobsCompleted = r.Counter("rasengan_jobs_completed_total", "Jobs finished successfully.")
	s.jobsFailed = r.Counter("rasengan_jobs_failed_total", "Jobs that errored or timed out.")
	s.jobsCancelled = r.Counter("rasengan_jobs_cancelled_total", "Jobs whose solve stopped at a context cancellation or deadline instead of completing.")
	s.solverPanics = r.Counter("rasengan_solver_panics_total", "Solver panics recovered and converted into failed jobs.")
	s.jobsCoalesced = r.Counter("rasengan_jobs_coalesced_total", "Requests joined onto an identical in-flight job.")
	s.jobsRecovered = r.Counter("rasengan_jobs_recovered_total", "Jobs restored from the journal at startup (terminal and re-enqueued).")
	s.warmHitsExact = r.CounterWith("rasengan_warmstart_hits_total", "Warm-start lookups served from the parameter store.", [2]string{"kind", "exact"})
	s.warmHitsFamily = r.CounterWith("rasengan_warmstart_hits_total", "Warm-start lookups served from the parameter store.", [2]string{"kind", "family"})
	s.warmMisses = r.Counter("rasengan_warmstart_misses_total", "Warm-start lookups that found no stored parameters.")
	s.rejectedFull = r.Counter("rasengan_jobs_rejected_queue_full_total", "Submissions rejected with 429 (queue full).")
	s.rejectedDrain = r.Counter("rasengan_jobs_rejected_draining_total", "Submissions rejected with 503 (draining).")
	s.jobsShed = r.Counter("rasengan_jobs_shed_total", "Submissions rejected with 429 at the shed watermark (queue not yet full).")
	s.batchRequests = r.Counter("rasengan_batch_requests_total", "POST /v1/solve/batch requests accepted for processing.")
	s.warmDimSkips = r.Counter("rasengan_warmstart_dim_mismatch_total", "Warm-start vectors skipped because their dimension did not match the request's schedule.")
	s.inflight = r.Gauge("rasengan_jobs_inflight", "Jobs queued or running.")
	s.solvesRunning = r.Gauge("rasengan_solves_running", "Solves currently executing (excludes queued jobs).")
	r.GaugeFunc("rasengan_queue_depth", "Accepted jobs waiting for an executor.", func() float64 {
		return float64(s.queue.Depth())
	})
	r.GaugeFunc("rasengan_queue_capacity", "Queue slot count.", func() float64 {
		return float64(s.queue.Capacity())
	})
	r.GaugeFunc("rasengan_cache_entries", "Result-cache entries resident.", func() float64 {
		return float64(s.cache.Len())
	})
	r.GaugeFunc("rasengan_cache_evictions_total", "Result-cache LRU evictions.", func() float64 {
		_, _, ev := s.cache.Stats()
		return float64(ev)
	})
	r.GaugeFunc("rasengan_cache_capacity", "Result-cache entry capacity (0 when caching is disabled).", func() float64 {
		if cfg.CacheEntries < 0 {
			return 0
		}
		return float64(cfg.CacheEntries)
	})
	r.GaugeFunc("rasengan_job_retention_capacity", "Terminal-job retention ring capacity.", func() float64 {
		return float64(cfg.JobRetention)
	})
	r.GaugeFunc("rasengan_worker_budget_total", "Total compute budget leased across executing solves.", func() float64 {
		return float64(s.budget.Total())
	})
	r.GaugeFunc("rasengan_worker_leases_active", "Solves currently holding a worker lease.", func() float64 {
		return float64(s.budget.Active())
	})
	r.GaugeFunc("rasengan_worker_budget_granted", "Sum of lease grants outstanding (= budget while leases ≤ budget).", func() float64 {
		return float64(s.budget.Granted())
	})
	// Anomaly-capture reasons are pre-registered so the family is visible
	// at zero; the watchdog increments via the same CounterWith call.
	r.CounterWith("rasengan_anomaly_captures_total", "Anomaly snapshots taken by the slow-solve watchdog.", [2]string{"reason", "stall"})
	r.CounterWith("rasengan_anomaly_captures_total", "Anomaly snapshots taken by the slow-solve watchdog.", [2]string{"reason", "slo"})
	r.GaugeFunc("rasengan_event_ring_events", "Events resident in the flight-recorder ring.", func() float64 {
		return float64(s.events.Len())
	})
	r.GaugeFunc("rasengan_event_ring_dropped_total", "Events evicted from the flight-recorder ring.", func() float64 {
		return float64(s.events.Dropped())
	})
	metrics.RegisterRuntime(r)
	r.GaugeFunc("rasengan_warmstart_hit_ratio", "Fraction of warm-start lookups served from the store.", func() float64 {
		hits := s.warmHitsExact.Value() + s.warmHitsFamily.Value()
		total := hits + s.warmMisses.Value()
		if total == 0 {
			return 0
		}
		return hits / total
	})

	if cfg.DataDir != "" {
		persist, entries, replayed, err := openPersistence(cfg.DataDir, cfg.WarmStartCapacity, cfg.JobRetention)
		if err != nil {
			return nil, err
		}
		s.persist = persist
		r.GaugeFuncWith("rasengan_store_entries", "Entries resident per durable store.", func() float64 {
			return float64(persist.warm.Len())
		}, [2]string{"store", "warmstart"})
		r.GaugeFuncWith("rasengan_store_entries", "Entries resident per durable store.", func() float64 {
			keys, err := persist.blobs.Keys()
			if err != nil {
				return -1
			}
			return float64(len(keys))
		}, [2]string{"store", "blobs"})
		r.GaugeFunc("rasengan_wal_fsyncs", "fsync calls issued by the journal WAL (group commit batches appends).", func() float64 {
			return float64(persist.journal.Syncs())
		})
		s.recover(entries, replayed)
	}
	return s, nil
}

// Metrics exposes the registry (the binary shares it for build info).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Drain stops intake (new solves get 503) and blocks until every
// accepted job has reached a terminal state or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.queue.Drain(ctx) }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	return api.NewHandler(api.RouteMetrics{
		Registry:     s.reg,
		DurationName: "rasengan_http_request_duration_seconds",
		DurationHelp: "HTTP request latency by route.",
		CountName:    "rasengan_http_requests_total",
		CountHelp:    "HTTP requests by route and status.",
	}, api.Handlers{
		Solve:      s.handleSolve,
		SolveBatch: s.handleSolveBatch,
		Jobs:       s.handleJobs,
		Job:        s.handleJob,
		JobEvents:  s.handleJobEvents,
		Cancel:     s.handleCancel,
		Problems:   s.handleProblems,
		Health:     s.handleHealth,
	})
}

func (s *Server) buildOptions(c api.Config) (core.Options, error) {
	var opts core.Options
	opts.Exec.Engine = s.cfg.Engine
	opts.Seed = c.Seed
	if c.MaxIter < 0 || c.MaxIter > s.cfg.MaxIter {
		return opts, fmt.Errorf("max_iter %d out of range [0,%d]", c.MaxIter, s.cfg.MaxIter)
	}
	opts.MaxIter = c.MaxIter
	if c.Shots < 0 || c.Shots > 1<<20 {
		return opts, fmt.Errorf("shots %d out of range [0,%d]", c.Shots, 1<<20)
	}
	opts.Exec.Shots = c.Shots
	opts.Schedule.SparsestFirst = c.SparsestFirst
	if c.Device != "" {
		dev, err := device.ByName(c.Device)
		if err != nil {
			return opts, err
		}
		opts.Exec.Device = dev
		if opts.Exec.Shots == 0 {
			opts.Exec.Shots = 1024
		}
	}
	return opts, nil
}

// --- handlers ---

// preparedSolve is a parsed, validated, keyed solve request: a cache
// hit already answered, or a miss ready for admission. Both the single
// and batch endpoints produce one per item.
type preparedSolve struct {
	// hit is the terminal job that answers a cache hit; nil on a miss,
	// whose remaining fields are then all set.
	hit       *job
	rawSpec   json.RawMessage
	cfg       api.Config
	timeoutMS int
	spec      *problems.Spec
	specHash  string
	problem   *problems.Problem
	opts      core.Options
	key       string
	deadline  time.Duration
}

// prepareSolve validates a request through to its cache key and looks
// the key up: parse the spec, hash it, resolve options, fingerprint,
// then one cache.Get. A hit builds nothing: the width limit reads the
// variable count the cache recorded (or the inline problem the hash
// decoded). Only a miss builds the problem, reusing an inline one, and
// width-checks it. A warm-start request is built first, because its key
// covers the warm-store times injected for the built problem. On error
// the int is the HTTP status.
func (s *Server) prepareSolve(req api.SolveRequest) (*preparedSolve, int, error) {
	if len(req.Spec) == 0 {
		return nil, http.StatusBadRequest, errors.New("missing \"spec\"")
	}
	spec, err := problems.ParseSpec(req.Spec)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	specHash, inline, err := spec.Address()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	opts, err := s.buildOptions(req.Config)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("invalid config: %w", err)
	}
	ps := &preparedSolve{rawSpec: req.Spec, cfg: req.Config, timeoutMS: req.TimeoutMS,
		spec: spec, specHash: specHash, problem: inline, opts: opts}
	if req.Config.WarmStart {
		if err := s.buildProblem(ps); err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		// Inject before the key is computed: the fingerprint must cover
		// the initial times actually used (see lookupWarmStart).
		ps.opts.InitialTimes = s.lookupWarmStart(spec, specHash, ps.problem, ps.opts)
	}
	ps.key = specHash + "/" + core.OptionsFingerprint(ps.opts)

	// Cache first: identical (spec, config) requests never re-simulate.
	if payload, vars, ok := s.cache.Get(ps.key); ok {
		if ps.problem != nil {
			vars = ps.problem.N
		} else if vars == 0 {
			// Recovered from the journal: learn the width on the first hit.
			p, err := spec.Build()
			if err != nil {
				return nil, http.StatusUnprocessableEntity, err
			}
			vars = p.N
			s.cache.SetVars(ps.key, vars)
		}
		if err := s.checkWidth(vars); err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
		s.cacheHits.Inc()
		ps.hit = s.jobs.createDone(payload, true)
		return ps, 0, nil
	}
	if err := s.buildProblem(ps); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	s.cacheMisses.Inc()
	ps.deadline = s.deadlineFor(req.TimeoutMS)
	return ps, 0, nil
}

// buildProblem materializes the problem of a prepared solve (an inline
// spec already carries it) and applies the width limit.
func (s *Server) buildProblem(ps *preparedSolve) error {
	if ps.problem == nil {
		p, err := ps.spec.Build()
		if err != nil {
			return err
		}
		ps.problem = p
	}
	return s.checkWidth(ps.problem.N)
}

// checkWidth rejects problems wider than Config.MaxVars.
func (s *Server) checkWidth(vars int) error {
	if vars > s.cfg.MaxVars {
		return fmt.Errorf("problem has %d variables; this server accepts at most %d", vars, s.cfg.MaxVars)
	}
	return nil
}

// deadlineFor is the deadline of a job submitted with timeoutMS:
// DefaultTimeout when it is not positive, else at most MaxTimeout.
func (s *Server) deadlineFor(timeoutMS int) time.Duration {
	if timeoutMS <= 0 {
		return s.cfg.DefaultTimeout
	}
	return capMS(timeoutMS, s.cfg.MaxTimeout)
}

// capMS converts a client's millisecond count to a duration of at most
// limit. It compares in milliseconds before converting: past about
// 9.2e12 ms, time.Duration(ms) * time.Millisecond wraps negative and
// would slip under the cap.
func capMS(ms int, limit time.Duration) time.Duration {
	if int64(ms) > limit.Milliseconds() {
		return limit
	}
	return time.Duration(ms) * time.Millisecond
}

// errShedding marks a request rejected at the shed watermark — the queue
// had slots, but admission control chose to keep them as headroom.
var errShedding = errors.New("service: shedding load")

// shedding reports whether the watermark admission check should reject
// new work right now.
func (s *Server) shedding() bool {
	wm := s.cfg.ShedWatermark
	if wm <= 0 || wm >= 1 {
		return false
	}
	limit := int(wm * float64(s.queue.Capacity()))
	if limit < 1 {
		limit = 1
	}
	return s.queue.Load() >= limit
}

// reserveAndCreate runs the admission sequence up to (but not including)
// the journal write: coalesce onto in-flight work, shed check, slot
// reservation, job creation. When created is true the caller owns a
// reserved queue slot and must journal the acceptance and then Commit
// the job (or cancel the reservation).
func (s *Server) reserveAndCreate(ps *preparedSolve) (j *job, created bool, err error) {
	// Coalescing needs no slot: the duplicate rides the original's.
	if existing, ok := s.jobs.lookupInflight(ps.key); ok {
		s.jobsCoalesced.Inc()
		return existing, false, nil
	}
	if s.shedding() {
		s.jobsShed.Inc()
		s.events.Record(obs.SevWarn, obs.EventShed, "", ps.specHash,
			fmt.Sprintf("watermark: queue at %d of %d slots", s.queue.Load(), s.queue.Capacity()))
		return nil, false, errShedding
	}
	// Reserve before create: a synchronous rejection (429/503) must leave
	// no trace — no job id, no journal records, nothing to cancel.
	if err := s.queue.Reserve(); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.rejectedFull.Inc()
			s.events.Record(obs.SevWarn, obs.EventShed, "", ps.specHash,
				fmt.Sprintf("queue full (%d slots)", s.queue.Capacity()))
		case errors.Is(err, ErrDraining):
			s.rejectedDrain.Inc()
		}
		return nil, false, err
	}
	j, joined := s.jobs.create(context.Background(), ps.key, ps.problem, ps.opts, ps.deadline)
	if joined {
		// An identical request created the job between lookup and create.
		s.queue.CancelReservation()
		s.jobsCoalesced.Inc()
		return j, false, nil
	}
	j.family, j.scale = ps.spec.Family, ps.spec.Scale
	return j, true, nil
}

// commitJob enqueues a job whose acceptance has been journaled. The only
// failure is a drain racing in after Reserve; the journaled accept then
// gets a matching cancel record so replay never resurrects the job.
func (s *Server) commitJob(j *job) error {
	if err := s.queue.Commit(j); err != nil {
		s.rejectedDrain.Inc()
		s.journalState(j, api.StatusCanceled, "not enqueued")
		j.finish(api.StatusCanceled, nil, "not enqueued")
		s.jobs.settle(j)
		return err
	}
	s.jobsSubmitted.Inc()
	s.inflight.Add(1)
	s.log.Info("job accepted", "job_id", j.id, "spec_hash", j.key, "problem", j.problem.Name,
		"queue_depth", s.queue.Depth())
	return nil
}

// writeReject answers a rejected submission. Every backpressure response
// carries a Retry-After computed from queue depth and the observed drain
// rate — including the 503 drain path, where it hints at restart time.
func (s *Server) writeReject(w http.ResponseWriter, err error) {
	retry := s.admission.retryAfter(s.queue.Load(), s.cfg.Executors)
	switch {
	case errors.Is(err, ErrQueueFull):
		api.WriteRetry(w, http.StatusTooManyRequests, retry, "queue full (%d slots); retry later", s.queue.Capacity())
	case errors.Is(err, errShedding):
		api.WriteRetry(w, http.StatusTooManyRequests, retry,
			"shedding load (queue at %d of %d slots); retry later", s.queue.Load(), s.queue.Capacity())
	case errors.Is(err, ErrDraining):
		api.WriteRetry(w, http.StatusServiceUnavailable, retry, "server is draining")
	default:
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	if err := api.Decode(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	ps, code, err := s.prepareSolve(req)
	if err != nil {
		api.WriteError(w, code, "%v", err)
		return
	}
	if ps.hit != nil {
		s.respondJob(w, ps.hit)
		return
	}

	j, created, err := s.reserveAndCreate(ps)
	if err != nil {
		s.writeReject(w, err)
		return
	}
	if created {
		// Journal before Commit: once an executor can see the job, its
		// lifecycle records must find the submit record already appended
		// (the journal fold drops records for ids it never saw submitted).
		s.journalAccept(j, ps.rawSpec, ps.cfg, ps.timeoutMS, ps.opts.InitialTimes, ps.problem.Name)
		if err := s.commitJob(j); err != nil {
			s.writeReject(w, err)
			return
		}
	}

	if req.WaitMS > 0 {
		// No job outlives MaxTimeout, so neither does the wait.
		timer := time.NewTimer(capMS(req.WaitMS, s.cfg.MaxTimeout))
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	s.respondJob(w, j)
}

// handleSolveBatch admits up to Config.MaxBatch independent items.
// Accepted items share one journal group-commit, so a K-item batch costs
// one fsync instead of K.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := api.Decode(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		api.WriteError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		api.WriteError(w, http.StatusRequestEntityTooLarge,
			"batch has %d items; this server accepts at most %d", len(req.Items), s.cfg.MaxBatch)
		return
	}
	s.batchRequests.Inc()

	items := make([]api.BatchItem, len(req.Items))
	type accepted struct {
		idx int
		ps  *preparedSolve
		j   *job
	}
	var toCommit []accepted
	for i, item := range req.Items {
		ps, code, err := s.prepareSolve(item)
		if err != nil {
			items[i] = api.BatchItem{Code: code, Error: err.Error()}
			continue
		}
		if ps.hit != nil {
			items[i] = api.BatchItem{Code: http.StatusOK, JobID: ps.hit.id, Status: api.StatusDone, Cached: true, Result: ps.hit.result}
			continue
		}
		j, created, err := s.reserveAndCreate(ps)
		if err != nil {
			code := http.StatusTooManyRequests
			if errors.Is(err, ErrDraining) {
				code = http.StatusServiceUnavailable
			}
			items[i] = api.BatchItem{Code: code, Error: err.Error(),
				RetryAfterS: s.admission.retryAfter(s.queue.Load(), s.cfg.Executors)}
			continue
		}
		if !created {
			// Coalesced onto an in-flight job (possibly an earlier item of
			// this very batch carrying the same key).
			v := j.snapshot()
			items[i] = api.BatchItem{Code: http.StatusAccepted, JobID: v.JobID, Status: v.Status, Cached: v.Cached}
			continue
		}
		items[i] = api.BatchItem{Code: http.StatusAccepted, JobID: j.id, Status: api.StatusQueued}
		toCommit = append(toCommit, accepted{idx: i, ps: ps, j: j})
	}

	// One WAL group-commit covers every accepted item, then each commits
	// into its reserved slot.
	batch := make([]acceptedJob, len(toCommit))
	for i, a := range toCommit {
		batch[i] = acceptedJob{j: a.j, spec: a.ps.rawSpec, cfg: a.ps.cfg,
			timeoutMS: a.ps.timeoutMS, initialTimes: a.ps.opts.InitialTimes, problem: a.ps.problem.Name}
	}
	s.journalAcceptBatch(batch)
	for _, a := range toCommit {
		if err := s.commitJob(a.j); err != nil {
			items[a.idx] = api.BatchItem{Code: http.StatusServiceUnavailable, Error: err.Error()}
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Items: items})
}

func (s *Server) respondJob(w http.ResponseWriter, j *job) {
	v := j.snapshot()
	code := http.StatusAccepted
	if v.Status == api.StatusDone || v.Status == api.StatusFailed || v.Status == api.StatusCanceled {
		code = http.StatusOK
	}
	api.WriteJob(w, code, v)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.respondJob(w, j)
}

const (
	defaultListLimit = 50
	maxListLimit     = 500
)

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var status api.Status
	if raw := q.Get("state"); raw != "" {
		switch api.Status(raw) {
		case api.StatusQueued, api.StatusRunning, api.StatusDone, api.StatusFailed, api.StatusCanceled:
			status = api.Status(raw)
		default:
			api.WriteError(w, http.StatusBadRequest,
				"unknown state %q (want queued, running, done, failed, or canceled)", raw)
			return
		}
	}
	limit, err := queryInt(q.Get("limit"), defaultListLimit, 1, maxListLimit)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid limit: %v", err)
		return
	}
	offset, err := queryInt(q.Get("offset"), 0, 0, 1<<30)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid offset: %v", err)
		return
	}
	views, total := s.jobs.list(status, offset, limit)
	api.WriteJSON(w, http.StatusOK, api.JobList{Jobs: views, Total: total, Offset: offset, Limit: limit})
}

// queryInt parses an optional integer query parameter within [min, max].
func queryInt(raw string, def, min, max int) (int, error) {
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%q is not an integer", raw)
	}
	if n < min || n > max {
		return 0, fmt.Errorf("%d out of range [%d,%d]", n, min, max)
	}
	return n, nil
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.cancel()
	s.respondJob(w, j)
}

func (s *Server) handleProblems(w http.ResponseWriter, _ *http.Request) {
	s.problemsOnce.Do(func() { s.problemsJSON = buildProblemsListing() })
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.problemsJSON)
}

// handleHealth reports liveness plus the intake state a cluster
// gateway's health checker keys on: "draining" means the process is
// alive but rejecting new work (graceful shutdown), so the gateway
// ejects it from the ring before clients see 503s. The response stays
// a plain 200 with "status":"ok" in both states — existing CI smokes
// and load balancers that only look for liveness keep working.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	state := "ok"
	if s.queue.Draining() {
		state = "draining"
	}
	api.WriteJSON(w, http.StatusOK, api.Health{
		Status:    "ok",
		State:     state,
		Queued:    s.queue.Depth(),
		Executing: int(s.solvesRunning.Value()),
	})
}

// runJob executes one accepted job synchronously on its executor
// goroutine. The solve is cooperatively cancellable — core.Solve checks
// j.ctx at every optimizer iteration, executor segment, and parallel
// chunk — so when a deadline or cancel fires, the solve returns and the
// executor is free for the next job within one boundary's worth of work;
// no goroutine is left running an abandoned solve. Every path ends in a
// terminal state: ctx-stopped jobs settle via finishErr, panics become
// failed jobs, successes land in the cache.
func (s *Server) runJob(j *job) {
	enter := time.Now()
	defer func() {
		s.jobs.settle(j)
		s.inflight.Add(-1)
		// Executor occupancy feeds the Retry-After estimator: how long one
		// queue slot takes to turn over, instant cancellations included.
		s.admission.observe(time.Since(enter).Seconds())
	}()
	if err := j.ctx.Err(); err != nil {
		s.finishErr(j, err)
		return
	}
	if !j.setRunning() {
		s.finishErr(j, context.Canceled)
		return
	}
	// Lease compute for the duration of the solve. The solver re-reads the
	// lease at every optimizer-iteration boundary, so a job that starts
	// alone with the whole budget narrows when neighbors arrive and widens
	// back as they finish — without ever changing its results.
	lease := s.budget.Acquire()
	defer lease.Release()
	j.opts.Workers = lease
	// Every executed solve records stage spans and convergence telemetry.
	// Neither can change the result (telemetry observes, never steers) or
	// the cached payload (convergence lives on the job, not in the result
	// bytes), so the cache key ignores it by construction.
	rec := obs.NewRecorder()
	j.opts.Telemetry.Spans = rec
	j.opts.Telemetry.Convergence = true
	// Live introspection: the solver publishes per-iteration progress into
	// the job's cell and flight-recorder events into the shared ring, both
	// correlated with this job. Neither can steer the solve.
	j.opts.Telemetry.Progress = j.progress
	specHash := j.key
	if sh, _, ok := splitKey(j.key); ok {
		specHash = sh
	}
	j.opts.Telemetry.Events = &obs.EventScope{Ring: s.events, JobID: j.id, SpecHash: specHash}
	s.journalState(j, api.StatusRunning, "")
	s.log.Info("job running", "job_id", j.id, "spec_hash", j.key, "problem", j.problem.Name)
	s.solvesRunning.Inc()
	start := time.Now()
	stopWatch := s.watchJob(j, rec, specHash)
	res, err := s.runSolve(j)
	stopWatch()
	s.solvesRunning.Dec()
	if err != nil {
		if j.ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Not a latency sample: observing abandoned solves would fold
			// the deadline value itself into the duration histogram.
			s.finishErr(j, err)
			return
		}
		s.solveDuration.Observe(time.Since(start).Seconds())
		s.observeStages(rec)
		if errors.Is(err, core.ErrSolvePanic) {
			s.solverPanics.Inc()
		}
		s.journalState(j, api.StatusFailed, err.Error())
		j.finish(api.StatusFailed, nil, err.Error())
		s.jobsFailed.Inc()
		s.log.Warn("job failed", "job_id", j.id, "spec_hash", j.key,
			"duration_ms", time.Since(start).Milliseconds(), "error", err.Error())
		return
	}
	s.solveDuration.Observe(time.Since(start).Seconds())
	s.observeStages(rec)
	payload, err := marshalResult(j.problem, res)
	if err != nil {
		s.journalState(j, api.StatusFailed, "marshal result: "+err.Error())
		j.finish(api.StatusFailed, nil, "marshal result: "+err.Error())
		s.jobsFailed.Inc()
		return
	}
	j.setConvergence(res.Convergence)
	s.recordWarm(j, res.Times)
	s.journalResult(j, payload)
	s.journalState(j, api.StatusDone, "")
	s.cache.Put(j.key, payload, j.problem.N)
	// Count and log before finish: a client woken by the done signal must
	// find the record and the counter already there.
	s.jobsCompleted.Inc()
	s.log.Info("job done", "job_id", j.id, "spec_hash", j.key,
		"duration_ms", time.Since(start).Milliseconds(), "iterations", res.Iterations, "evals", res.Evals)
	j.finish(api.StatusDone, payload, "")
}

// observeStages folds one job's span totals into the per-stage duration
// histograms scraped at /metrics.
func (s *Server) observeStages(rec *obs.Recorder) {
	for stage, d := range rec.StageTotals() {
		s.reg.HistogramWith("rasengan_stage_duration_seconds",
			"Measured wall time per solve pipeline stage.", nil,
			[2]string{"stage", stage}).Observe(d.Seconds())
	}
}

// runSolve invokes the configured solver with a final panic net. The
// default solver (core.Solve) already recovers its own panics into
// ErrSolvePanic; this layer catches panics from substituted SolveFuncs
// and anything on the executor goroutine outside the solver proper, so a
// poisoned job can never kill an executor.
func (s *Server) runSolve(j *job) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, core.NewSolvePanicError(r)
		}
	}()
	return s.cfg.Solve(j.ctx, j.problem, j.opts)
}

// finishErr settles a job whose solve stopped at a context boundary. It
// is the single increment point for rasengan_jobs_cancelled_total, which
// counts every context-stopped job regardless of whether the trigger was
// a client cancel or a deadline (deadlines additionally count as failed).
func (s *Server) finishErr(j *job, err error) {
	s.jobsCancelled.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		s.journalState(j, api.StatusFailed, "deadline exceeded")
		j.finish(api.StatusFailed, nil, "deadline exceeded")
		s.jobsFailed.Inc()
		s.log.Warn("job deadline exceeded", "job_id", j.id, "spec_hash", j.key)
		return
	}
	s.journalState(j, api.StatusCanceled, "canceled")
	j.finish(api.StatusCanceled, nil, "canceled")
	s.log.Info("job cancelled", "job_id", j.id, "spec_hash", j.key)
}

// buildProblemsListing builds the GET /v1/problems body: every
// generator family × scale with its instance shape (case 0).
func buildProblemsListing() []byte {
	type cell struct {
		Label          string `json:"label"`
		Family         string `json:"family"`
		Scale          int    `json:"scale"`
		NumVars        int    `json:"num_vars"`
		NumConstraints int    `json:"num_constraints"`
		Sense          string `json:"sense"`
	}
	var cells []cell
	for _, b := range problems.Suite() {
		p := b.Generate(0)
		cells = append(cells, cell{
			Label:          b.Label(),
			Family:         b.Family,
			Scale:          b.Scale,
			NumVars:        p.N,
			NumConstraints: p.NumConstraints(),
			Sense:          p.Sense.String(),
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]any{"families": problems.Families, "scales": []int{1, 2, 3, 4}, "problems": cells})
	return buf.Bytes()
}
