package cluster_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkGatewayCacheHit times the gateway answering a cache hit over
// two in-process backends: decode, hash and route at the gateway, the
// owner's hit over loopback HTTP, and the relay of its envelope.
func BenchmarkGatewayCacheHit(b *testing.B) {
	tc := newTestCluster(b, 2, nil, nil)
	const body = `{"spec":{"family":"FLP","scale":2,"case":0},"config":{"seed":1,"max_iter":10}}`
	if code, raw := tc.post(tc.gwTS.URL+"/v1/solve", body[:len(body)-1]+`,"wait_ms":60000}`); code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", code, raw)
	}
	h := tc.gw.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
			b.Fatalf("not a cache hit: %d %s", rec.Code, rec.Body)
		}
	}
}
