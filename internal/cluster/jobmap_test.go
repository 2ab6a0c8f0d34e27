package cluster

import (
	"net/url"
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
