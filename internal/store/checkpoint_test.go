package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointWriterRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Write([]byte{byte(i), 0xAA, byte(i)}); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("load after write %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte{byte(i), 0xAA, byte(i)}) {
			t.Fatalf("load after write %d: got %v", i, got)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close publishes the newest payload as a plain canonical file and
	// removes the slots.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{4, 0xAA, 4}) {
		t.Fatalf("published payload = %v", data)
	}
	for _, name := range ckptSlotNames(path) {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("slot %s survived Close", name)
		}
	}
	if got, err := LoadCheckpoint(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("load after Close: %v %v", got, err)
	}
}

// TestCheckpointWriterTornSlot: corrupting the newest slot — the state a
// mid-write crash leaves — must fall back to the other slot's complete
// previous payload.
func TestCheckpointWriterTornSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("boundary-1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("boundary-2")); err != nil {
		t.Fatal(err)
	}
	// Slot holding boundary-2 is the one written second: seq 2 lives in
	// slot .b (writes alternate starting at .a). Tear it mid-frame.
	name := ckptSlotNames(path)[1]
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "boundary-1" {
		t.Fatalf("torn newest slot resolved to %q, want the surviving boundary-1", got)
	}
}

// TestCheckpointWriterReopen: a writer reopened over surviving slots (an
// interrupted run) must continue the sequence, not restart it — the
// first new write replaces the older slot and immediately becomes the
// newest state.
func TestCheckpointWriterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if err := w.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate SIGKILL: no Close. Reopen and write once.
	w2, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "resumed" {
		t.Fatalf("after reopen+write, newest = %q", got)
	}
	// The pre-crash newest must still be the fallback if the new slot tears.
	var tornName string
	for _, name := range ckptSlotNames(path) {
		data, _ := os.ReadFile(name)
		if p, _, ok := parseCkptFrame(data); ok && string(p) == "resumed" {
			tornName = name
			if err := os.WriteFile(name, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tornName == "" {
		t.Fatal("could not locate the resumed slot")
	}
	if got, err := LoadCheckpoint(path); err != nil || string(got) != "c" {
		t.Fatalf("fallback after tearing resumed slot: %q, %v", got, err)
	}
}

// TestLoadCheckpointPlainFile: a payload written directly to the path
// (no slot files) loads as-is, so resume accepts files from any writer.
func TestLoadCheckpointPlainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("plain"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil || string(got) != "plain" {
		t.Fatalf("plain load: %q, %v", got, err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint loaded without error")
	}
}

// TestCheckpointWriterStaleTail: a shorter frame over a longer one
// leaves stale bytes past the payload; the length field must bound what
// readers see.
func TestCheckpointWriterStaleTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("x"), 4096)
	for _, p := range [][]byte{long, long, []byte("s1"), []byte("s2")} {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := LoadCheckpoint(path); err != nil || string(got) != "s2" {
		t.Fatalf("stale-tail load: %q (len %d), %v", got, len(got), err)
	}
}

// FuzzParseCkptFrame: parseCkptFrame never panics, and a frame it accepts
// has its payload inside the input, under the header's length, sequence
// and CRC-32C. The frame CheckpointWriter.Write builds from a fuzzed
// payload and sequence number parses back to both, and no truncation of
// it parses.
func FuzzParseCkptFrame(f *testing.F) {
	frame := func(seq uint32, payload []byte) []byte {
		var hdr [ckptHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], ckptMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], seq)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
		return append(hdr[:], payload...)
	}
	f.Add([]byte(nil), uint32(0))
	f.Add(frame(1, []byte(`{"version":1}`)), uint32(1))
	f.Add(append(frame(7, []byte("s2")), "stale tail"...), uint32(7))
	f.Add(frame(2, []byte("torn"))[:ckptHeaderLen+2], uint32(2))
	badCRC := frame(3, []byte("crc"))
	badCRC[12] ^= 1
	f.Add(badCRC, uint32(3))
	f.Add(frame(0xFFFFFFFF, nil), uint32(0xFFFFFFFF))
	w, err := OpenCheckpointWriter(filepath.Join(f.TempDir(), "fuzz.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	f.Fuzz(func(t *testing.T, data []byte, seq uint32) {
		if payload, gotSeq, ok := parseCkptFrame(data); ok {
			n := int(binary.LittleEndian.Uint32(data[8:12]))
			if len(data) < ckptHeaderLen+n || len(payload) != n || !bytes.Equal(payload, data[ckptHeaderLen:ckptHeaderLen+n]) {
				t.Fatalf("accepted payload %q is not the %d bytes after the header of %q", payload, n, data)
			}
			if gotSeq != binary.LittleEndian.Uint32(data[4:8]) || crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[12:16]) {
				t.Fatalf("accepted %q with sequence %d and a CRC other than the header's", data, gotSeq)
			}
		}

		w.seq = seq
		slot := w.slots[w.next]
		if err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		// The slot may hold a longer earlier frame's tail; the frame is
		// what this Write put at its start.
		written := make([]byte, ckptHeaderLen+len(data))
		if _, err := slot.ReadAt(written, 0); err != nil {
			t.Fatal(err)
		}
		payload, gotSeq, ok := parseCkptFrame(written)
		if !ok || gotSeq != seq || !bytes.Equal(payload, data) {
			t.Fatalf("written frame parsed to (%q, %d, %v), want (%q, %d, true)", payload, gotSeq, ok, data, seq)
		}
		for n := 0; n < len(written); n++ {
			if _, _, ok := parseCkptFrame(written[:n]); ok {
				t.Fatalf("the frame truncated to %d of %d bytes parsed", n, len(written))
			}
		}
	})
}
