package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"

	"rasengan/internal/api"
	"rasengan/internal/core"
	"rasengan/internal/obs"
	"rasengan/internal/problems"
	"rasengan/internal/store"
)

// Durability layer. With Config.DataDir set, the server journals every
// accepted job (submission payload, lifecycle transitions, result blob
// key) to a CRC-framed WAL under the data directory and keeps result
// payloads in a content-addressed blob store. On startup the journal
// replays: terminal jobs come back queryable under their original ids
// with the cache rehydrated from blobs, and jobs that were queued or
// running at the crash are re-enqueued under their original ids — solves
// are deterministic functions of (spec, resolved options), so a replayed
// job produces the byte-identical payload the lost run would have.
//
// The same directory also holds the warm-start parameter store:
// converged evolution times recorded per solve, keyed by exact spec
// fingerprint and by (family, scale), and injected as
// Options.InitialTimes when a request opts in with "warm_start": true.
// Injection happens before the cache key is computed, preserving the
// cache-replay contract: the key reflects the options actually solved.

// persistence bundles the server's durable stores.
type persistence struct {
	journal *store.Journal
	blobs   *store.BlobStore
	warm    *store.WarmStore
}

// jobPayload is the journaled submission record: everything needed to
// re-run the job identically after a crash. Spec is the request's raw
// spec; Config the request's solver config; InitialTimes the RESOLVED
// warm-start injection (if any) — replay must not re-consult the warm
// store, which may have learned different parameters since.
type jobPayload struct {
	Spec         json.RawMessage `json:"spec"`
	Config       api.Config      `json:"config"`
	Key          string          `json:"key"`
	TimeoutMS    int             `json:"timeout_ms,omitempty"`
	InitialTimes []float64       `json:"initial_times,omitempty"`
	Problem      string          `json:"problem,omitempty"`
	Family       string          `json:"family,omitempty"`
	Scale        int             `json:"scale,omitempty"`
}

// openPersistence opens the journal, blob store, and warm-start store
// under dataDir, returning the recovered journal entries.
func openPersistence(dataDir string, warmCapacity int) (*persistence, []store.JobEntry, error) {
	journal, entries, err := store.OpenJournal(dataDir)
	if err != nil {
		return nil, nil, err
	}
	blobs, err := store.OpenBlobStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		journal.Close()
		return nil, nil, err
	}
	warm, err := store.OpenWarmStore(filepath.Join(dataDir, "warmstart.json"), warmCapacity)
	if err != nil {
		journal.Close()
		return nil, nil, err
	}
	return &persistence{journal: journal, blobs: blobs, warm: warm}, entries, nil
}

// recover rebuilds server state from journal entries: terminal jobs are
// restored queryable (done jobs also rehydrate the cache from blobs),
// and interrupted jobs re-enter the queue under their original ids.
// Terminal entries beyond the retention bound are dropped, and the
// journal is re-compacted to the kept set so it cannot grow across
// restart cycles.
func (s *Server) recover(entries []store.JobEntry) error {
	var kept []store.JobEntry
	terminalStart := 0
	// Count terminal entries so only the newest `retention` are kept.
	terminals := 0
	for _, e := range entries {
		if isTerminalState(e.State) {
			terminals++
		}
	}
	drop := terminals - s.cfg.JobRetention
	for _, e := range entries {
		if isTerminalState(e.State) && terminalStart < drop {
			terminalStart++
			continue
		}
		kept = append(kept, e)
	}

	for _, e := range kept {
		s.jobs.bumpSeq(e.ID)
		switch e.State {
		case string(api.StatusDone):
			var pl jobPayload
			payload, err := s.persist.blobs.Get(e.Blob)
			if err != nil || json.Unmarshal(e.Data, &pl) != nil {
				s.log.Warn("recovery: dropping done job with unreadable result", "job_id", e.ID, "blob", e.Blob)
				continue
			}
			if pl.Key != "" {
				// Width unknown until the first hit builds the problem, so
				// recovery builds nothing.
				s.cache.Put(pl.Key, payload, 0)
			}
			s.jobs.restoreTerminal(e.ID, api.StatusDone, payload, "")
			s.jobsRecovered.Inc()
		case string(api.StatusFailed), string(api.StatusCanceled):
			s.jobs.restoreTerminal(e.ID, api.Status(e.State), nil, e.Error)
			s.jobsRecovered.Inc()
		case string(api.StatusQueued), string(api.StatusRunning):
			if err := s.reenqueue(e); err != nil {
				s.log.Warn("recovery: could not re-enqueue job", "job_id", e.ID, "error", err.Error())
				s.jobs.restoreTerminal(e.ID, api.StatusFailed, nil, "lost at restart: "+err.Error())
			} else {
				s.jobsRecovered.Inc()
			}
		default:
			s.log.Warn("recovery: unknown journal state", "job_id", e.ID, "state", e.State)
		}
	}
	if len(entries) > 0 {
		s.events.Record(obs.SevInfo, obs.EventWALRecovery, "", "",
			fmt.Sprintf("replayed %d journal entries, recovered %.0f jobs", len(entries), s.jobsRecovered.Value()))
	}
	return s.persist.journal.Compact(kept)
}

// reenqueue rebuilds one interrupted job from its journaled payload and
// submits it under its original id.
func (s *Server) reenqueue(e store.JobEntry) error {
	var pl jobPayload
	if err := json.Unmarshal(e.Data, &pl); err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	spec, err := problems.ParseSpec(pl.Spec)
	if err != nil {
		return err
	}
	p, err := spec.Build()
	if err != nil {
		return err
	}
	opts, err := s.buildOptions(pl.Config)
	if err != nil {
		return err
	}
	// Replay the resolved warm start verbatim; see jobPayload.
	opts.InitialTimes = pl.InitialTimes
	j := s.jobs.restoreActive(context.Background(), e.ID, pl.Key, p, opts, s.deadlineFor(pl.TimeoutMS))
	j.family, j.scale = pl.Family, pl.Scale
	if err := s.queue.Submit(j); err != nil {
		j.finish(api.StatusCanceled, nil, "not enqueued at recovery")
		s.jobs.settle(j)
		return err
	}
	s.inflight.Add(1)
	s.log.Info("job re-enqueued after restart", "job_id", j.id, "spec_hash", j.key, "problem", p.Name)
	return nil
}

func isTerminalState(state string) bool {
	switch state {
	case string(api.StatusDone), string(api.StatusFailed), string(api.StatusCanceled):
		return true
	}
	return false
}

// journalAccept records a freshly accepted job. Journal append errors
// are logged, not fatal: the server keeps serving, durability degrades.
func (s *Server) journalAccept(j *job, spec json.RawMessage, cfg api.Config, timeoutMS int, initialTimes []float64, problem string) {
	if s.persist == nil {
		return
	}
	pl := jobPayload{
		Spec:         spec,
		Config:       cfg,
		Key:          j.key,
		TimeoutMS:    timeoutMS,
		InitialTimes: initialTimes,
		Problem:      problem,
		Family:       j.family,
		Scale:        j.scale,
	}
	data, err := json.Marshal(pl)
	if err == nil {
		err = s.persist.journal.Submit(j.id, data)
	}
	if err != nil {
		s.log.Warn("journal submit failed", "job_id", j.id, "error", err.Error())
	}
}

// acceptedJob bundles one batch item's job with the request fields its
// journal payload needs.
type acceptedJob struct {
	j            *job
	spec         json.RawMessage
	cfg          api.Config
	timeoutMS    int
	initialTimes []float64
	problem      string
}

// journalAcceptBatch records a group of accepted jobs with one WAL
// group-commit: the batch endpoint's accepted items share a single fsync
// instead of paying one each (see store.Journal.SubmitBatch).
func (s *Server) journalAcceptBatch(batch []acceptedJob) {
	if s.persist == nil || len(batch) == 0 {
		return
	}
	ids := make([]string, len(batch))
	payloads := make([][]byte, len(batch))
	for i, a := range batch {
		pl := jobPayload{
			Spec:         a.spec,
			Config:       a.cfg,
			Key:          a.j.key,
			TimeoutMS:    a.timeoutMS,
			InitialTimes: a.initialTimes,
			Problem:      a.problem,
			Family:       a.j.family,
			Scale:        a.j.scale,
		}
		data, err := json.Marshal(pl)
		if err != nil {
			s.log.Warn("journal batch submit failed", "job_id", a.j.id, "error", err.Error())
			return
		}
		ids[i] = a.j.id
		payloads[i] = data
	}
	if err := s.persist.journal.SubmitBatch(ids, payloads); err != nil {
		s.log.Warn("journal batch submit failed", "error", err.Error())
	}
}

// journalState records a lifecycle transition.
func (s *Server) journalState(j *job, state api.Status, errMsg string) {
	if s.persist == nil {
		return
	}
	if err := s.persist.journal.State(j.id, string(state), errMsg); err != nil {
		s.log.Warn("journal state failed", "job_id", j.id, "error", err.Error())
	}
}

// journalResult stores the result payload in the blob store and records
// its content address, then the terminal state. Called before finish()
// publishes the result, so a crash after clients saw "done" implies the
// journal already has the blob.
func (s *Server) journalResult(j *job, payload []byte) {
	if s.persist == nil {
		return
	}
	key, err := s.persist.blobs.Put(payload)
	if err == nil {
		err = s.persist.journal.Result(j.id, key)
	}
	if err != nil {
		s.log.Warn("journal result failed", "job_id", j.id, "error", err.Error())
	}
}

// warmKeyFamily builds the coarse warm-start key for a generator family
// and scale.
func warmKeyFamily(family string, scale int) string {
	return "family:" + family + ":" + strconv.Itoa(scale)
}

// lookupWarmStart returns warm-start evolution times for the request —
// exact spec fingerprint first, then the (family, scale) bucket — or
// nil on a miss. The caller injects the result into
// Options.InitialTimes BEFORE the cache key is computed: the key
// reflects the options actually solved, which keeps the cache-replay
// byte-identity contract intact.
//
// Every candidate is dimension-checked against the request's own
// schedule before injection. Family buckets hold times from whichever
// instance of the family last converged, and different scales (or
// different schedule options) can produce different parameter counts —
// injecting a wrong-length vector would not mis-seed the solve
// (core.Solve ignores mismatched InitialTimes) but would silently fork
// the cache key, so identical requests stop coalescing. A mismatch
// counts rasengan_warmstart_dim_mismatch_total and falls through to the
// next source.
func (s *Server) lookupWarmStart(spec *problems.Spec, specHash string, p *problems.Problem, opts core.Options) []float64 {
	if s.persist == nil {
		return nil
	}
	if times, ok := s.persist.warm.Get("spec:" + specHash); ok {
		if s.warmDimOK(specHash, p, opts, times) {
			s.warmHitsExact.Inc()
			s.events.Record(obs.SevInfo, obs.EventWarmStart, "", specHash,
				fmt.Sprintf("exact spec match (%d params)", len(times)))
			return times
		}
	}
	if spec.Family != "" {
		if times, ok := s.persist.warm.Get(warmKeyFamily(spec.Family, spec.Scale)); ok {
			if s.warmDimOK(specHash, p, opts, times) {
				s.warmHitsFamily.Inc()
				s.events.Record(obs.SevInfo, obs.EventWarmStart, "", specHash,
					fmt.Sprintf("%s (%d params)", warmKeyFamily(spec.Family, spec.Scale), len(times)))
				return times
			}
		}
	}
	s.warmMisses.Inc()
	return nil
}

// warmDimKey keys the schedule-parameter-count memo. The spec hash pins
// the problem; of the solver knobs the API exposes, only the schedule
// options change the parameter count.
func warmDimKey(specHash string, opts core.Options) string {
	return specHash + "|sparsest=" + strconv.FormatBool(opts.Schedule.SparsestFirst)
}

// warmDimOK reports whether a stored warm-start vector matches the
// parameter count of the schedule this request will actually solve.
func (s *Server) warmDimOK(specHash string, p *problems.Problem, opts core.Options, times []float64) bool {
	key := warmDimKey(specHash, opts)
	var want int
	if v, ok := s.warmDims.Load(key); ok {
		want = v.(int)
	} else {
		n, err := core.ScheduleParamCount(p, opts)
		if err != nil {
			// The solve itself would fail the same way; don't warm-start it.
			return false
		}
		s.warmDims.Store(key, n)
		want = n
	}
	if len(times) != want {
		s.warmDimSkips.Inc()
		s.events.Record(obs.SevWarn, obs.EventWarmStartDimMismatch, "", specHash,
			fmt.Sprintf("stored %d params, schedule wants %d", len(times), want))
		s.log.Warn("warm start skipped: dimension mismatch",
			"spec_hash", specHash, "stored", len(times), "want", want)
		return false
	}
	return true
}

// recordWarm stores a successful solve's converged evolution times
// under the exact and family keys for future warm starts.
func (s *Server) recordWarm(j *job, times []float64) {
	if s.persist == nil || len(times) == 0 {
		return
	}
	specHash, _, ok := splitKey(j.key)
	if !ok {
		return
	}
	// Prime the dimension memo: a solve that just produced len(times)
	// parameters pins the schedule's parameter count for this spec.
	s.warmDims.Store(warmDimKey(specHash, j.opts), len(times))
	if err := s.persist.warm.Put("spec:"+specHash, times); err != nil {
		s.log.Warn("warm store write failed", "job_id", j.id, "error", err.Error())
		return
	}
	if j.family != "" {
		if err := s.persist.warm.Put(warmKeyFamily(j.family, j.scale), times); err != nil {
			s.log.Warn("warm store write failed", "job_id", j.id, "error", err.Error())
		}
	}
}

// splitKey splits a cache key into spec hash and options fingerprint.
func splitKey(key string) (specHash, fingerprint string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// Close releases the durable stores (flushes and closes the journal
// WAL). Call after Drain; a server without a data directory is a no-op.
func (s *Server) Close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.journal.Close()
}
