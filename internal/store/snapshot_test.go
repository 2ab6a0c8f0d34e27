package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestAppendSnapshotMatchesMarshal: the snapshot writer produces
// json.Marshal's bytes on random snapshots whose strings hold quotes,
// backslashes, HTML characters, control bytes, non-ASCII and invalid
// UTF-8, and whose Data holds whitespace and escapable characters.
func TestAppendSnapshotMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "z", "0", "-", " ", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xe2\x80"}
	str := func() string {
		var b bytes.Buffer
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	datas := []string{"", `{}`, `null`, `{"spec":{"family":"FLP","scale":1},"config":{"seed":3},"key":"ab/cd"}`,
		`{ "a" : [1, 2] }`, "{\"a\":\"<&>\"}", "{\"a\":\"\u2028\"}", "[\"\xff\"]", `"x y"`, `-1.5e3`}
	for round := 0; round < 5000; round++ {
		var entries []JobEntry
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			entries = make([]JobEntry, n)
		}
		for i := range entries {
			entries[i] = JobEntry{ID: str(), State: str(), Error: str(), Blob: str()}
			if d := datas[rng.Intn(len(datas))]; d != "" {
				entries[i].Data = json.RawMessage(d)
			}
		}
		want, err := json.Marshal(snapshotFile{Version: snapshotVersion, Jobs: entries})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSnapshot(nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d:\n got %q\nwant %q", round, got, want)
		}
	}
}

// FuzzOpenJournal: opening a journal directory holding arbitrary
// snapshot and WAL bytes never panics. When it succeeds, the snapshot it
// compacted is json.Marshal's encoding of the entries it returned, the
// WAL is reset to its header, and reopening returns the same entries
// (each Data in the compact, escaped form json.Marshal gives it) and
// rewrites the same snapshot.
func FuzzOpenJournal(f *testing.F) {
	snap, wal := seedJournal(f)
	f.Add([]byte(nil), wal)
	f.Add(snap, wal)
	f.Add(snap, []byte(nil))
	f.Add(snap, append(append([]byte(nil), wal...), 42, 0, 0, 0, 1, 2)) // torn tail
	f.Add([]byte(`{"version":1,"jobs":[{"id":"a","data":{ "k" : "<é>" },"state":"done"}]}`), []byte(nil))
	f.Add([]byte(`{"version":1,"jobs":null}`), walMagic[:])
	f.Fuzz(func(t *testing.T, snap, wal []byte) {
		dir := t.TempDir()
		snapPath := filepath.Join(dir, "journal.snapshot")
		if len(snap) > 0 {
			if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, err := OpenJournal(dir)
		if err != nil {
			return
		}
		j.Close()
		want, err := json.Marshal(snapshotFile{Version: snapshotVersion, Jobs: entries})
		if err != nil {
			t.Fatalf("entries do not marshal: %v", err)
		}
		if got, err := appendSnapshot(nil, entries); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snapshot writer: %q (err %v), json.Marshal: %q", got, err, want)
		}
		if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("compacted snapshot %q (err %v), want %q", got, err, want)
		}
		if size := fileSize(t, filepath.Join(dir, "journal.wal")); size != int64(len(walMagic)) {
			t.Fatalf("wal is %d bytes after open, want its header", size)
		}

		j, again, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("reopening a compacted journal: %v", err)
		}
		j.Close()
		if len(again) != len(entries) {
			t.Fatalf("reopen returned %d entries, want %d", len(again), len(entries))
		}
		for i, e := range entries {
			a := again[i]
			data := e.Data
			if len(data) > 0 {
				data, _ = json.Marshal(e.Data)
			}
			if a.ID != e.ID || a.State != e.State || a.Error != e.Error || a.Blob != e.Blob || !bytes.Equal(a.Data, data) {
				t.Fatalf("entry %d: reopened %+v, want %+v", i, a, e)
			}
		}
		if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("second compaction wrote %q (err %v), want %q", got, err, want)
		}
	})
}

// seedJournal builds a real journal and returns its snapshot and WAL
// bytes: a compacted first generation in the snapshot, a second in the
// WAL, covering every record type.
func seedJournal(f *testing.F) (snap, wal []byte) {
	dir := f.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	must(j.Submit("job-00000001", []byte(`{"spec":{"family":"FLP","scale":1},"config":{"seed":1},"key":"h/<fp>"}`)))
	must(j.State("job-00000001", "running", ""))
	must(j.Result("job-00000001", Key([]byte("payload"))))
	must(j.State("job-00000001", "done", ""))
	must(j.Close())
	j, _, err = OpenJournal(dir)
	must(err)
	must(j.SubmitBatch([]string{"job-00000002", "job-00000003"}, [][]byte{[]byte(`{"spec":{"problem":{"n":2}}}`), []byte(`{}`)}))
	must(j.State("job-00000002", "failed", `deadline "exceeded"`))
	must(j.Close())
	snap, err = os.ReadFile(filepath.Join(dir, "journal.snapshot"))
	must(err)
	wal, err = os.ReadFile(filepath.Join(dir, "journal.wal"))
	must(err)
	return snap, wal
}

// benchSnapshot is a snapshot of n done jobs shaped like the service's:
// a generator spec, its cache key and its result blob.
func benchSnapshot(n int) []JobEntry {
	entries := make([]JobEntry, n)
	for i := range entries {
		key := Key([]byte{byte(i), byte(i >> 8)})
		data := `{"spec":{"family":"FLP","scale":1},"config":{"seed":` + strconv.Itoa(1000+i) +
			`},"key":"` + key + "/" + Key([]byte{byte(i)}) + `","problem":"F1/case0","family":"FLP","scale":1}`
		entries[i] = JobEntry{ID: fmt.Sprintf("job-%08d", i+1), Data: json.RawMessage(data), State: "done", Blob: Key([]byte(data))}
	}
	return entries
}

func BenchmarkAppendSnapshot(b *testing.B) {
	entries := benchSnapshot(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := appendSnapshot(nil, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalSnapshot(b *testing.B) {
	entries := benchSnapshot(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(snapshotFile{Version: snapshotVersion, Jobs: entries}); err != nil {
			b.Fatal(err)
		}
	}
}
