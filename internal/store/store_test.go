package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBlobStoreRoundTrip(t *testing.T) {
	b, err := OpenBlobStore(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"result":"payload"}`)
	key, err := b.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if key != Key(payload) {
		t.Fatalf("key %s != content address %s", key, Key(payload))
	}
	// Idempotent re-put.
	key2, err := b.Put(payload)
	if err != nil || key2 != key {
		t.Fatalf("re-put: key %s err %v", key2, err)
	}
	got, err := b.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	keys, err := b.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("keys %v err %v", keys, err)
	}
}

func TestBlobStoreRejectsDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "blobs")
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := b.Put([]byte("original bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(key); err == nil {
		t.Fatal("damaged blob returned without error")
	}
	if _, err := b.Get("../../etc/passwd"); err == nil {
		t.Fatal("path-traversal key accepted")
	}
	if _, err := b.Get("ZZ"); err == nil {
		t.Fatal("non-hex key accepted")
	}
}

// TestBlobStoreDeleteExcept: only blobs outside the kept set go; files
// whose names are not blob keys stay.
func TestBlobStoreDeleteExcept(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "blobs")
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, p := range []string{"kept", "dropped-1", "dropped-2"} {
		key, err := b.Put([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	foreign := filepath.Join(dir, ".tmp-"+keys[1])
	if err := os.WriteFile(foreign, []byte("dropped-1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteExcept(map[string]bool{keys[0]: true}); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Keys(); err != nil || len(got) != 1 || got[0] != keys[0] {
		t.Fatalf("keys after DeleteExcept: %v (err %v), want [%s]", got, err, keys[0])
	}
	if _, err := b.Get(keys[0]); err != nil {
		t.Fatalf("kept blob: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("a file that is not a blob was touched: %v", err)
	}
}

func TestJournalRecoveryFold(t *testing.T) {
	dir := t.TempDir()
	j, recovered, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recovered))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Submit("job-00000001", []byte(`{"spec":1}`)))
	must(j.State("job-00000001", "running", ""))
	must(j.Submit("job-00000002", []byte(`{"spec":2}`)))
	must(j.Result("job-00000001", Key([]byte("payload"))))
	must(j.State("job-00000001", "done", ""))
	must(j.State("job-00000002", "failed", "deadline exceeded"))
	must(j.Close())

	_, recovered, err = OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(recovered))
	}
	j1, j2 := recovered[0], recovered[1]
	if j1.ID != "job-00000001" || j2.ID != "job-00000002" {
		t.Fatalf("submission order lost: %s, %s", j1.ID, j2.ID)
	}
	if j1.State != "done" || j1.Blob != Key([]byte("payload")) || string(j1.Data) != `{"spec":1}` {
		t.Errorf("job 1 folded wrong: %+v", j1)
	}
	if j2.State != "failed" || j2.Error != "deadline exceeded" {
		t.Errorf("job 2 folded wrong: %+v", j2)
	}
}

// TestJournalCompactionBoundsLog: every open folds the WAL into the
// snapshot and resets the log, so restart cycles never grow it. After
// each open the WAL is its bare header and the snapshot holds every
// recovered job; after the last close the WAL holds exactly the one
// record appended since.
func TestJournalCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "journal.wal")
	var last []byte
	for cycle := 0; cycle < 3; cycle++ {
		j, recovered, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if len(recovered) != cycle {
			t.Fatalf("cycle %d recovered %d jobs", cycle, len(recovered))
		}
		if size := fileSize(t, walPath); size != int64(len(walMagic)) {
			t.Fatalf("cycle %d: wal is %d bytes after open, want its %d-byte header", cycle, size, len(walMagic))
		}
		if snap := readSnapshot(t, dir); len(snap.Jobs) != cycle {
			t.Fatalf("cycle %d: snapshot holds %d jobs, want %d", cycle, len(snap.Jobs), cycle)
		}
		id := string(rune('a'+cycle)) + "-job"
		if err := j.Submit(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		last, _ = json.Marshal(journalRecord{Type: recSubmit, ID: id, Data: []byte(`{}`)})
		j.Close()
	}
	if size, want := fileSize(t, walPath), int64(len(walMagic)+8+len(last)); size != want {
		t.Errorf("wal is %d bytes after 3 restart cycles, want %d (header and one record)", size, want)
	}
}

// TestJournalRetainingCompactsKeptSetOnce: an open applies the retention
// rule before its one compaction, so the snapshot and the returned
// entries are the kept set, and reopening an existing journal issues one
// WAL fsync: the compaction's reset.
func TestJournalRetainingCompactsKeptSetOnce(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		if err := j.Submit(id, []byte(`{"spec":"<&>"}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	keepEvenIDs := func(entries []JobEntry) []JobEntry {
		var kept []JobEntry
		for i, e := range entries {
			if i%2 == 1 {
				kept = append(kept, e)
			}
		}
		return kept
	}
	j, kept, err := OpenJournalRetaining(dir, keepEvenIDs)
	if err != nil {
		t.Fatal(err)
	}
	syncs := j.Syncs()
	j.Close()
	if len(kept) != 2 || kept[0].ID != "job-2" || kept[1].ID != "job-4" {
		t.Fatalf("kept %+v, want job-2 and job-4", kept)
	}
	if syncs != 1 {
		t.Errorf("open issued %d WAL fsyncs, want 1 (one compaction)", syncs)
	}
	if snap := readSnapshot(t, dir); len(snap.Jobs) != 2 || snap.Jobs[0].ID != "job-2" || string(snap.Jobs[1].Data) != `{"spec":"\u003c\u0026\u003e"}` {
		t.Fatalf("snapshot holds %+v, want the kept set", snap.Jobs)
	}
	_, again, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].ID != "job-2" || again[1].ID != "job-4" {
		t.Fatalf("reopen recovered %+v, want job-2 and job-4", again)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func readSnapshot(t *testing.T, dir string) snapshotFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestJournalTornRecordRecovery: a torn WAL tail (simulated crash
// mid-append) must not lose acknowledged records.
func TestJournalTornRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("job-00000001", []byte(`{"spec":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: garbage half-frame at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0, 1, 2})
	f.Close()

	_, recovered, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "job-00000001" {
		t.Fatalf("recovered %+v", recovered)
	}
}

func TestWarmStorePersistAndEvict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.json")
	w, err := OpenWarmStore(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("b", []float64{3}); err != nil {
		t.Fatal(err)
	}
	// Refresh a, then insert c: b (now oldest) is evicted.
	if err := w.Put("a", []float64{1, 2, 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("c", []float64{7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get("b"); ok {
		t.Error("b should have been evicted")
	}

	w2, err := OpenWarmStore(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", w2.Len())
	}
	times, ok := w2.Get("a")
	if !ok || len(times) != 3 || times[2] != 9 {
		t.Fatalf("a reloaded as %v", times)
	}
	// Mutating the returned slice must not affect the store.
	times[0] = -1
	again, _ := w2.Get("a")
	if again[0] != 1 {
		t.Error("Get returned an aliased slice")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read %q err %v", got, err)
	}
	// No tempfile litter.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want 1", len(entries))
	}
}
