package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Job journal: the durable record of every job the service accepted and
// what became of it. The journal is a folded view over two files in the
// data directory —
//
//	journal.snapshot  last compacted state (atomic JSON)
//	journal.wal       records appended since that snapshot
//
// Appends hit the WAL (durable before the API call returns); opening
// the journal loads the snapshot, replays the WAL over it, applies the
// caller's retention rule, compacts the retained state into a fresh
// snapshot, and resets the WAL, so the log never grows across restarts.
// That compaction runs once per open and before the caller sees any
// entry: nothing the caller starts from those entries can append a
// record that a later reset would drop. The journal is service-agnostic:
// a job's submission payload is opaque bytes the caller interprets on
// replay.

// Journal record types.
const (
	recSubmit = "submit" // a job was accepted; Data carries the caller's payload
	recState  = "state"  // a job changed lifecycle state
	recResult = "result" // a job produced a result blob (Blob is its key)
)

// journalRecord is one WAL entry.
type journalRecord struct {
	Type  string          `json:"t"`
	ID    string          `json:"id"`
	State string          `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	Blob  string          `json:"blob,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// JobEntry is the folded state of one journaled job.
type JobEntry struct {
	ID string `json:"id"`
	// Data is the submission payload verbatim (the service stores the
	// resolved spec + options so a replayed job re-runs identically).
	Data json.RawMessage `json:"data,omitempty"`
	// State is the last recorded lifecycle state ("queued", "running",
	// "done", "failed", "canceled" in the service's vocabulary).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Blob is the content address of the result payload, when one was
	// recorded.
	Blob string `json:"blob,omitempty"`
}

// snapshotFile is the compacted journal state.
type snapshotFile struct {
	Version int        `json:"version"`
	Jobs    []JobEntry `json:"jobs"`
}

const snapshotVersion = 1

// Journal is the durable job log.
type Journal struct {
	wal *WAL
	dir string
}

// OpenJournal opens the journal under dir (created if missing),
// returning every recovered job in submission order. Recovery is
// crash-tolerant end to end: a torn WAL tail is truncated, and the
// recovered state is compacted into a fresh snapshot before OpenJournal
// returns.
func OpenJournal(dir string) (*Journal, []JobEntry, error) {
	return OpenJournalRetaining(dir, nil)
}

// OpenJournalRetaining is OpenJournal with a retention rule: retain
// receives the recovered jobs in submission order and returns the ones
// to keep (nil retain keeps all). Only the kept jobs are compacted into
// the snapshot and returned, so what the caller restores and what the
// journal holds are the same set.
func OpenJournalRetaining(dir string, retain func([]JobEntry) []JobEntry) (*Journal, []JobEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: journal %s: %w", dir, err)
	}
	snapPath := filepath.Join(dir, "journal.snapshot")
	var entries []JobEntry
	index := map[string]int{}
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, nil, fmt.Errorf("store: journal snapshot %s: %w", snapPath, err)
		}
		if snap.Version != snapshotVersion {
			return nil, nil, fmt.Errorf("store: journal snapshot version %d, want %d", snap.Version, snapshotVersion)
		}
		entries = snap.Jobs
		for i, e := range entries {
			index[e.ID] = i
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: journal snapshot %s: %w", snapPath, err)
	}

	wal, err := OpenWAL(filepath.Join(dir, "journal.wal"), func(rec []byte) {
		var r journalRecord
		if json.Unmarshal(rec, &r) != nil {
			return // CRC-valid but unparseable: skip defensively
		}
		i, ok := index[r.ID]
		if !ok {
			if r.Type != recSubmit {
				return // state/result for a job we never saw submitted
			}
			index[r.ID] = len(entries)
			entries = append(entries, JobEntry{ID: r.ID, Data: append(json.RawMessage(nil), r.Data...), State: "queued"})
			return
		}
		switch r.Type {
		case recState:
			entries[i].State = r.State
			entries[i].Error = r.Error
		case recResult:
			entries[i].Blob = r.Blob
		}
	})
	if err != nil {
		return nil, nil, err
	}

	if retain != nil {
		entries = retain(entries)
	}
	j := &Journal{wal: wal, dir: dir}
	// Compact before returning, even when the WAL replayed nothing: the
	// snapshot absorbs everything kept and the WAL restarts empty,
	// bounding log growth across restarts.
	if err := j.compact(entries); err != nil {
		wal.Close()
		return nil, nil, err
	}
	return j, entries, nil
}

// Submit journals a job acceptance with its opaque payload.
func (j *Journal) Submit(id string, data []byte) error {
	return j.append(journalRecord{Type: recSubmit, ID: id, Data: data})
}

// SubmitBatch journals a group of job acceptances as one WAL batch: all
// submit records share a single group-commit fsync, so a K-item batch
// endpoint pays one durability round trip instead of K. ids and payloads
// are parallel slices.
func (j *Journal) SubmitBatch(ids []string, payloads [][]byte) error {
	if len(ids) != len(payloads) {
		return fmt.Errorf("store: journal batch: %d ids for %d payloads", len(ids), len(payloads))
	}
	if len(ids) == 0 {
		return nil
	}
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		data, err := json.Marshal(journalRecord{Type: recSubmit, ID: id, Data: payloads[i]})
		if err != nil {
			return fmt.Errorf("store: journal record: %w", err)
		}
		recs[i] = data
	}
	return j.wal.AppendBatch(recs)
}

// State journals a lifecycle transition.
func (j *Journal) State(id, state, errMsg string) error {
	return j.append(journalRecord{Type: recState, ID: id, State: state, Error: errMsg})
}

// Result journals the content address of a job's result payload.
func (j *Journal) Result(id, blobKey string) error {
	return j.append(journalRecord{Type: recResult, ID: id, Blob: blobKey})
}

func (j *Journal) append(r journalRecord) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: journal record: %w", err)
	}
	return j.wal.Append(data)
}

// compact writes entries as the snapshot and resets the WAL. It runs
// only inside OpenJournalRetaining, before any append.
func (j *Journal) compact(entries []JobEntry) error {
	data, err := appendSnapshot(nil, entries)
	if err != nil {
		return fmt.Errorf("store: journal snapshot: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(j.dir, "journal.snapshot"), data, 0o644); err != nil {
		return err
	}
	return j.wal.Reset()
}

// Syncs reports the WAL's fsync count (observability).
func (j *Journal) Syncs() uint64 { return j.wal.Syncs() }

// Close closes the underlying WAL.
func (j *Journal) Close() error { return j.wal.Close() }
