package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func openCollect(t *testing.T, path string) (*WAL, [][]byte) {
	t.Helper()
	var recs [][]byte
	w, err := OpenWAL(path, func(rec []byte) {
		recs = append(recs, append([]byte(nil), rec...))
	})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	return w, recs
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, recs := openCollect(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("one"), []byte(`{"two":2}`), {}, bytes.Repeat([]byte{0xAB}, 10_000)}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, recs := openCollect(t, path)
	defer w2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Errorf("record %d: %q != %q", i, recs[i], want[i])
		}
	}
}

// TestWALTornTailTruncated: every flavor of torn/corrupt tail — partial
// frame header, partial payload, flipped payload byte, impossible
// length — must replay the intact prefix and truncate the damage, and a
// subsequent append must produce a clean log.
func TestWALTornTailTruncated(t *testing.T) {
	build := func(t *testing.T) (string, int64) {
		path := filepath.Join(t.TempDir(), "torn.wal")
		w, _ := openCollect(t, path)
		for i := 0; i < 3; i++ {
			if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, info.Size()
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string, size int64)
	}{
		{"partial-frame-header", func(t *testing.T, path string, _ int64) {
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			f.Write([]byte{1, 2, 3}) // 3 of 8 header bytes
			f.Close()
		}},
		{"partial-payload", func(t *testing.T, path string, _ int64) {
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			f.Write([]byte{200, 0, 0, 0, 9, 9, 9, 9, 'x', 'y'}) // claims 200 bytes, has 2
			f.Close()
		}},
		{"flipped-payload-byte", func(t *testing.T, path string, size int64) {
			f, _ := os.OpenFile(path, os.O_WRONLY, 0)
			f.WriteAt([]byte{0xFF}, size-1) // corrupt last record's payload
			f.Close()
		}},
		{"impossible-length", func(t *testing.T, path string, _ int64) {
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
			f.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, size := build(t)
			tc.damage(t, path, size)
			w, recs := openCollect(t, path)
			wantIntact := 3
			if tc.name == "flipped-payload-byte" {
				wantIntact = 2 // the damage hit record 3 itself
			}
			if len(recs) != wantIntact {
				t.Fatalf("replayed %d records, want %d", len(recs), wantIntact)
			}
			// The log must be clean again: append and re-replay.
			if err := w.Append([]byte("after-recovery")); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			w.Close()
			w2, recs := openCollect(t, path)
			w2.Close()
			if len(recs) != wantIntact+1 || string(recs[len(recs)-1]) != "after-recovery" {
				t.Fatalf("post-recovery replay got %d records, last %q", len(recs), recs[len(recs)-1])
			}
		})
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.wal")
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, nil); err == nil {
		t.Fatal("foreign file opened as WAL")
	}
}

// TestWALGroupCommit: concurrent appenders must all be durably written,
// with fewer fsyncs than appends (the batching actually batches).
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	w, _ := openCollect(t, path)
	const appenders, perAppender = 8, 25
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			<-barrier
			for i := 0; i < perAppender; i++ {
				if err := w.Append([]byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	close(barrier)
	wg.Wait()
	syncs := w.Syncs()
	w.Close()
	if syncs >= appenders*perAppender {
		t.Errorf("group commit issued %d fsyncs for %d appends (no batching)", syncs, appenders*perAppender)
	}
	w2, recs := openCollect(t, path)
	w2.Close()
	if len(recs) != appenders*perAppender {
		t.Fatalf("replayed %d records, want %d", len(recs), appenders*perAppender)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	w, _ := openCollect(t, path)
	w.Append([]byte("gone"))
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, recs := openCollect(t, path)
	w2.Close()
	if len(recs) != 1 || string(recs[0]) != "kept" {
		t.Fatalf("after reset replay = %q", recs)
	}
}

// TestWALLengthPastEndAllocatesNothing: a torn frame whose length prefix
// claims more bytes than the file holds is truncated without allocating
// a buffer of that length first.
func TestWALLengthPastEndAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.wal")
	w, _ := openCollect(t, path)
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], maxWALRecord) // 64 MiB claimed, 3 bytes present
	f.Write(append(frame[:], 1, 2, 3))
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w2, recs := openCollect(t, path)
	runtime.ReadMemStats(&after)
	w2.Close()
	if len(recs) != 1 || string(recs[0]) != "kept" {
		t.Fatalf("replayed %q, want the one intact record", recs)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("replay allocated %d bytes for a torn frame", grew)
	}
}

// FuzzWALReplay: a WAL file holding the magic and then arbitrary bytes
// replays exactly the records of its longest well-formed frame prefix,
// as walFrames decodes it, and is truncated to the end of that prefix. A
// record appended after the open replays after them on a reopen.
func FuzzWALReplay(f *testing.F) {
	frame := func(rec []byte) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, castagnoli))
		return append(hdr[:], rec...)
	}
	two := append(frame([]byte("record-0")), frame([]byte(`{"t":"submit","id":"job-1"}`))...)
	badCRC := append([]byte(nil), two...)
	badCRC[5] ^= 0xFF
	huge := append(append([]byte(nil), two...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	f.Add([]byte(nil))
	f.Add(frame(nil))
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn payload
	f.Add(append(append([]byte(nil), two...), 1, 2, 3))
	f.Add(badCRC)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, append(walMagic[:], body...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, end := walFrames(body)
		w, got := openCollect(t, path)
		if !slices.EqualFunc(got, want, bytes.Equal) {
			w.Close()
			t.Fatalf("replayed %q, want %q", got, want)
		}
		if size := fileSize(t, path); size != int64(len(walMagic)+end) {
			w.Close()
			t.Fatalf("file is %d bytes after replay, want %d (header and %d bytes of frames)", size, len(walMagic)+end, end)
		}
		appended := []byte("appended after replay")
		if err := w.Append(appended); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, got = openCollect(t, path)
		w.Close()
		if want = append(want, appended); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("reopen replayed %q, want %q", got, want)
		}
	})
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walFrames is a reference decoder for the bytes after a WAL header: it
// returns the records of the longest prefix of well-formed frames (length
// at most maxWALRecord, frame inside body, CRC-32C match) and that
// prefix's length.
func walFrames(body []byte) (recs [][]byte, end int) {
	for {
		rest := body[end:]
		if len(rest) < 8 {
			return recs, end
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxWALRecord || uint64(n) > uint64(len(rest)-8) {
			return recs, end
		}
		rec := rest[8 : 8+n]
		if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, end
		}
		recs = append(recs, rec)
		end += 8 + int(n)
	}
}
