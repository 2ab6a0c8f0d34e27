package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Write-ahead log. The file starts with an 8-byte magic+version header
// and then holds framed records:
//
//	[u32 payload length][u32 CRC-32C of payload][payload bytes]
//
// all little-endian. Appends are durable before Append returns: the
// record is written and the file fsynced. Concurrent appenders batch
// into group commits — one leader fsyncs for every record written up to
// that instant, followers wait for a sync covering their record — so N
// goroutines appending concurrently cost far fewer than N fsyncs.
//
// Replay walks the frames front to back and stops at the first torn or
// corrupt frame (short header, short payload, impossible length, CRC
// mismatch), truncating the file there: a crash mid-append loses at
// most the record being written, never an acknowledged one.

var walMagic = [8]byte{'R', 'S', 'G', 'N', 'W', 'A', 'L', 1}

// maxWALRecord bounds a single record (64 MiB); a larger length prefix
// is treated as corruption during replay and rejected during Append.
const maxWALRecord = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only log with group-commit fsync batching.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	path string

	appendSeq uint64 // records written to the OS
	syncSeq   uint64 // records covered by a completed fsync
	syncing   bool   // a leader is currently inside fsync
	err       error  // first write/sync error; the WAL is dead after it
	syncs     uint64 // fsync calls issued on the file (observability)
}

// OpenWAL opens or creates the log at path, replays every intact record
// into the callback, and truncates any torn tail. The callback sees
// records in append order; the byte slice is only valid during the
// call.
func OpenWAL(path string, replay func(rec []byte)) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal %s: %w", path, err)
	}
	w := &WAL{f: f, path: path}
	w.cond = sync.NewCond(&w.mu)
	if err := w.replayAndTruncate(replay); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// replayAndTruncate validates the header, feeds intact records to the
// callback, and truncates the file at the first damaged frame.
func (w *WAL) replayAndTruncate(replay func(rec []byte)) error {
	info, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if info.Size() == 0 {
		// Fresh log: write the header.
		if _, err := w.f.Write(walMagic[:]); err != nil {
			return fmt.Errorf("store: wal %s: header: %w", w.path, err)
		}
		w.syncs++
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal %s: header: %w", w.path, err)
		}
		return nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
		return fmt.Errorf("store: wal %s: short header: %w", w.path, err)
	}
	if hdr != walMagic {
		return fmt.Errorf("store: wal %s: bad magic %x (not a rasengan WAL, or an unsupported version)", w.path, hdr)
	}
	offset := int64(len(walMagic))
	var frame [8]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(w.f, frame[:]); err != nil {
			break // clean EOF or torn frame header: truncate here
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length > maxWALRecord || int64(length) > info.Size()-offset-8 {
			break // impossible length, or longer than the file: corrupt or torn frame
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(w.f, buf); err != nil {
			break // torn payload
		}
		if crc32.Checksum(buf, crcTable) != sum {
			break // corrupt payload
		}
		if replay != nil {
			replay(buf)
		}
		offset += 8 + int64(length)
	}
	if err := w.f.Truncate(offset); err != nil {
		return fmt.Errorf("store: wal %s: truncate torn tail: %w", w.path, err)
	}
	if _, err := w.f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	return nil
}

// Append durably writes one record: when Append returns nil, the record
// has been fsynced (possibly by another appender's group commit).
func (w *WAL) Append(rec []byte) error {
	return w.AppendBatch([][]byte{rec})
}

// AppendBatch durably writes a group of records under one mutex hold and
// one group-commit join: all frames land in the file back to back, then a
// single fsync (possibly shared with concurrent appenders) covers the
// whole batch. When AppendBatch returns nil, every record is durable.
// The batch is atomic in ordering (no foreign record interleaves) but not
// in durability: a crash mid-batch can persist a prefix, which replay
// handles record by record like any torn tail.
func (w *WAL) AppendBatch(recs [][]byte) error {
	for _, rec := range recs {
		if len(rec) > maxWALRecord {
			return fmt.Errorf("store: wal record %d bytes exceeds limit %d", len(rec), maxWALRecord)
		}
	}
	if len(recs) == 0 {
		return nil
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	var frame [8]byte
	for _, rec := range recs {
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, crcTable))
		if _, err := w.f.Write(frame[:]); err != nil {
			w.fail(err)
			return err
		}
		if _, err := w.f.Write(rec); err != nil {
			w.fail(err)
			return err
		}
		w.appendSeq++
	}
	seq := w.appendSeq

	// Group commit: the first appender to arrive while no fsync is in
	// flight becomes the leader and syncs everything written so far;
	// appenders that arrived during an in-flight fsync wait and the next
	// leader covers them. Everyone returns only once a sync at or past
	// their own record has completed.
	for w.syncSeq < seq && w.err == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.appendSeq
		w.mu.Unlock()
		err := w.f.Sync()
		w.mu.Lock()
		w.syncing = false
		w.syncs++
		if err != nil {
			w.fail(err)
		} else if target > w.syncSeq {
			w.syncSeq = target
		}
		w.cond.Broadcast()
	}
	return w.err
}

// fail poisons the WAL with its first error and wakes every waiter.
func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	w.cond.Broadcast()
}

// Reset truncates the log back to just its header (used after snapshot
// compaction: the snapshot now carries everything the log held).
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		w.fail(err)
		return w.err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		w.fail(err)
		return w.err
	}
	w.syncs++
	if err := w.f.Sync(); err != nil {
		w.fail(err)
		return w.err
	}
	return nil
}

// Syncs reports how many fsyncs the WAL has issued: one for a new
// file's header, one per Reset, and the group commits, which number at
// most one per Append.
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close syncs and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("store: wal %s: closed", w.path)
	}
	w.cond.Broadcast()
	return err
}
