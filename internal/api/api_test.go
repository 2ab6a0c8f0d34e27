package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusRecorderFlushPassthrough locks in the SSE prerequisite: the
// instrumentation wrapper must still look flushable — both directly and
// through http.ResponseController's Unwrap walk — and forward Flush to
// the underlying writer.
func TestStatusRecorderFlushPassthrough(t *testing.T) {
	under := httptest.NewRecorder()
	wrapped := &statusRecorder{ResponseWriter: under, code: http.StatusOK}

	f, ok := http.ResponseWriter(wrapped).(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not satisfy http.Flusher")
	}
	f.Flush()
	if !under.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}

	under.Flushed = false
	if err := http.NewResponseController(wrapped).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush: %v", err)
	}
	if !under.Flushed {
		t.Fatal("ResponseController flush did not reach the underlying writer")
	}

	// A non-flushable underlying writer must not panic.
	plain := &statusRecorder{ResponseWriter: nonFlusher{httptest.NewRecorder()}, code: http.StatusOK}
	plain.Flush()
}

// nonFlusher hides the Flush method of the wrapped writer.
type nonFlusher struct{ w *httptest.ResponseRecorder }

func (n nonFlusher) Header() http.Header         { return n.w.Header() }
func (n nonFlusher) Write(b []byte) (int, error) { return n.w.Write(b) }
func (n nonFlusher) WriteHeader(code int)        { n.w.WriteHeader(code) }

// FuzzDecodeSolveRequest: the strict decoder never panics, and a request
// it accepts survives a re-encode and decode unchanged. The spec is raw
// JSON, which re-encoding compacts, so it is compared compacted.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":7,"max_iter":3},"wait_ms":100}`,
		`{"spec": {"family": "KPP", "scale": 2},
		  "config": {"device": "kyiv", "shots": 256, "sparsest_first": true, "warm_start": true},
		  "timeout_ms": 5}`,
		`{"spec":{"n":2,"obj":[[1,0],[0,"<&>"]]},"config":{}} trailing`,
		`{"spec":{"family":"FLP"},"bogus":1}`,
		`{"spec":{"family":"FLP"},"config":{"sead":1}}`,
		`{"Spec":[1,2],"CONFIG":{"SEED":-1}}`,
		`{"spec":null}`, `{}`, `null`, `{"spec":`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if Decode(bytes.NewReader(data), &req) != nil {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(req); err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		var again SolveRequest
		if err := Decode(&buf, &again); err != nil {
			t.Fatalf("decode of re-encoded %q: %v", buf.String(), err)
		}
		if len(req.Spec) > 0 {
			var compact bytes.Buffer
			if err := json.Compact(&compact, req.Spec); err != nil {
				t.Fatalf("decoded spec %q is not JSON: %v", req.Spec, err)
			}
			req.Spec = compact.Bytes()
		}
		if !bytes.Equal(req.Spec, again.Spec) || req.Config != again.Config ||
			req.WaitMS != again.WaitMS || req.TimeoutMS != again.TimeoutMS {
			t.Fatalf("round trip changed the request:\n  first:  %+v\n  second: %+v", req, again)
		}
	})
}
