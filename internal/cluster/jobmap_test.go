package cluster

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzSplitJobID: gateway id parsing never panics, an accepted id
// re-joins to itself, and the backend URL built from its upstream part
// parses back to exactly that one job path — no query, no fragment, no
// extra path segment, whatever the client put in the id.
func FuzzSplitJobID(f *testing.F) {
	for _, seed := range []string{
		"n1.job-00000001", "n1.job-00000001?state=done", "n1.job-00000001/events",
		"n1.job-00000001/../../metrics", "n1.job%2F1", "n1.a#b", "n1.a b", "n1.a.b",
		".job-1", "n1.", "", "nodot", "n1.\xff\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		backend, upstream, ok := splitJobID(id)
		if !ok {
			return
		}
		if joined := gatewayJobID(backend, upstream); joined != id {
			t.Fatalf("split(%q) = %q, %q re-joins to %q", id, backend, upstream, joined)
		}
		for _, suffix := range []string{"", "/cancel", "/events"} {
			path := jobPath(upstream, suffix)
			u, err := url.Parse("http://backend.test" + path)
			if err != nil {
				t.Fatalf("upstream URL for %q does not parse: %v", id, err)
			}
			if u.Path != "/v1/jobs/"+upstream+suffix || u.RawQuery != "" || u.Fragment != "" {
				t.Fatalf("upstream URL for %q parses to path %q query %q fragment %q",
					id, u.Path, u.RawQuery, u.Fragment)
			}
			if seg := strings.TrimSuffix(strings.TrimPrefix(u.EscapedPath(), "/v1/jobs/"), suffix); strings.Contains(seg, "/") {
				t.Fatalf("upstream id %q spans path segments: %q", upstream, u.EscapedPath())
			}
		}
	})
}

// TestJobMapGrowsThenEvictsOldest: the ring holds only the ids that have
// arrived until it reaches its capacity, then evicts in arrival order.
func TestJobMapGrowsThenEvictsOldest(t *testing.T) {
	m := newJobMap(4)
	for i := 0; i < 3; i++ {
		m.put(strconv.Itoa(i), &jobEntry{backend: "n1"})
	}
	if len(m.retained) != 3 {
		t.Fatalf("ring holds %d slots after 3 puts, want 3", len(m.retained))
	}
	m.put("1", &jobEntry{backend: "n2"}) // an update takes no slot
	for i := 3; i < 7; i++ {
		m.put(strconv.Itoa(i), &jobEntry{backend: "n1"})
	}
	if len(m.retained) != 4 {
		t.Fatalf("ring holds %d slots, want its capacity 4", len(m.retained))
	}
	for i := 0; i < 7; i++ {
		_, ok := m.get(strconv.Itoa(i))
		if want := i >= 3; ok != want {
			t.Errorf("id %d resident %v, want %v", i, ok, want)
		}
	}
}
