package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRing(capacity int) *EventRing {
	tick := time.Unix(1700000000, 0)
	var mu sync.Mutex
	return NewEventRingWithClock(capacity, func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick = tick.Add(time.Millisecond)
		return tick
	})
}

// TestEventRingEviction fills a small ring past capacity and checks the
// window holds the newest events, oldest first, with eviction counted.
func TestEventRingEviction(t *testing.T) {
	r := testRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(SevInfo, EventCheckpoint, fmt.Sprintf("job-%d", i), "", "")
	}
	if r.Len() != 3 || r.Dropped() != 2 || r.Seq() != 5 {
		t.Fatalf("len=%d dropped=%d seq=%d", r.Len(), r.Dropped(), r.Seq())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		wantSeq := uint64(3 + i)
		if e.Seq != wantSeq || e.JobID != fmt.Sprintf("job-%d", wantSeq) {
			t.Fatalf("snapshot[%d] = %+v, want seq %d", i, e, wantSeq)
		}
	}
	// Snapshot is a copy: mutating it cannot corrupt the ring.
	snap[0].JobID = "mangled"
	if r.Snapshot()[0].JobID == "mangled" {
		t.Fatal("snapshot aliases ring storage")
	}
}

// TestEventRingSnapshotJob filters the window by job id.
func TestEventRingSnapshotJob(t *testing.T) {
	r := testRing(8)
	r.Record(SevInfo, EventWarmStart, "job-1", "h1", "")
	r.Record(SevWarn, EventShed, "", "h2", "")
	r.Record(SevError, EventPanic, "job-1", "h1", "boom")
	got := r.SnapshotJob("job-1")
	if len(got) != 2 || got[0].Kind != EventWarmStart || got[1].Kind != EventPanic {
		t.Fatalf("SnapshotJob = %+v", got)
	}
}

// TestEventDumpRoundtrip checks WriteJSON → ParseEventDump fidelity,
// including the version and dropped fields of the envelope.
func TestEventDumpRoundtrip(t *testing.T) {
	r := testRing(2)
	r.Record(SevWarn, EventEngineFallback, "job-9", "hash", "noisy device")
	r.Record(SevInfo, EventLease, "job-9", "hash", "width 8 -> 4")
	r.Record(SevInfo, EventLease, "job-9", "hash", "width 4 -> 8")

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"version":1`)) {
		t.Fatalf("dump lacks version: %s", buf.Bytes())
	}
	events, dropped, err := ParseEventDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || len(events) != 2 {
		t.Fatalf("parsed dropped=%d events=%d", dropped, len(events))
	}
	if events[0].Kind != EventLease || events[0].Detail != "width 8 -> 4" || events[0].TimeUnixMS == 0 {
		t.Fatalf("parsed event mangled: %+v", events[0])
	}

	// An empty ring must still produce a valid envelope with events:[].
	empty := testRing(2)
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"events":[]`)) {
		t.Fatalf("empty dump: %s", buf.Bytes())
	}
}

// TestEventDumpRejectsOtherVersions: an envelope of another version, or
// one without a version, is refused with an error naming both versions.
func TestEventDumpRejectsOtherVersions(t *testing.T) {
	for _, tc := range []struct{ name, dump, version string }{
		{"version-2", `{"version":2,"dropped":0,"events":[]}`, "version 2"},
		{"missing", `{"dropped":0,"events":[{"seq":1,"kind":"wal_recovery"}]}`, "version 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseEventDump([]byte(tc.dump))
			if err == nil {
				t.Fatalf("parsed %s without error", tc.dump)
			}
			if want := fmt.Sprintf("reads version %d", EventDumpVersion); !strings.Contains(err.Error(), tc.version) || !strings.Contains(err.Error(), want) {
				t.Errorf("error %q should name %q and %q", err, tc.version, want)
			}
		})
	}
}

// FuzzParseEventDump: ParseEventDump never panics, and a dump it accepts,
// marshalled again as an eventDump, parses to the same events and dropped
// count.
func FuzzParseEventDump(f *testing.F) {
	r := testRing(3)
	r.Record(SevWarn, EventEngineFallback, "job-9", "hash", "noisy <device> \u00e9")
	r.Record(SevInfo, EventLease, "", "", "width 8 -> 4")
	r.Record(SevError, EventPanic, "job-9", "", "")
	r.Record(SevInfo, EventWALRecovery, "", "", "3 jobs")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		`{}`, `{"version":1}`, `{"version":2,"events":[]}`, `{"version":1,"dropped":3,"events":null}`,
		`{"version":1,"events":[{"seq":1,"time_unix_ms":-1,"severity":"x","kind":"k","detail":"\ud800"}]}`,
		`{"version":1.5}`, `{"VERSION":1,"Events":[{}]}`, `[]`, `null`, `{"version":1,"dropped":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, dropped, err := ParseEventDump(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(eventDump{Version: EventDumpVersion, Dropped: dropped, Events: events})
		if err != nil {
			t.Fatalf("accepted events do not marshal: %v", err)
		}
		events2, dropped2, err := ParseEventDump(again)
		if err != nil {
			t.Fatalf("re-marshalled dump %s: %v", again, err)
		}
		if dropped2 != dropped || !reflect.DeepEqual(events2, events) {
			t.Fatalf("round trip: (%d, %+v), want (%d, %+v)", dropped2, events2, dropped, events)
		}
	})
}

// TestEventRingConcurrent hammers Record/Snapshot from many goroutines
// (run under -race) and checks totals afterwards.
func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(SevInfo, EventCheckpoint, fmt.Sprintf("job-%d", g), "", "")
				if i%10 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Seq() != 800 || r.Len() != 64 || r.Dropped() != 800-64 {
		t.Fatalf("seq=%d len=%d dropped=%d", r.Seq(), r.Len(), r.Dropped())
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot not contiguous at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

// TestEventScopeNilSafe exercises nil scopes and scopes over nil rings.
func TestEventScopeNilSafe(t *testing.T) {
	var s *EventScope
	s.Event(SevInfo, EventCheckpoint, "no-op")
	(&EventScope{}).Event(SevInfo, EventCheckpoint, "no-op")

	r := testRing(4)
	scope := &EventScope{Ring: r, JobID: "job-7", SpecHash: "abc"}
	scope.Event(SevWarn, EventEngineFallback, "detail")
	got := r.Snapshot()
	if len(got) != 1 || got[0].JobID != "job-7" || got[0].SpecHash != "abc" || got[0].Severity != SevWarn {
		t.Fatalf("scope event mangled: %+v", got)
	}
}

// TestNilEventRingIsSafe exercises every method on a nil ring.
func TestNilEventRingIsSafe(t *testing.T) {
	var r *EventRing
	r.Record(SevInfo, EventCheckpoint, "", "", "")
	if r.Snapshot() != nil || r.SnapshotJob("x") != nil {
		t.Fatal("nil ring returned events")
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Seq() != 0 {
		t.Fatal("nil ring reports state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
