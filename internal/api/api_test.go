package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rasengan/internal/metrics"
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

// writeJSONBody is what WriteJSON answers for v.
func writeJSONBody(v any) []byte {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// compactOrEmpty returns raw compacted, or nil when raw is not JSON.
func compactOrEmpty(raw []byte) json.RawMessage {
	var buf bytes.Buffer
	if json.Compact(&buf, raw) != nil {
		return nil
	}
	return buf.Bytes()
}

// FuzzWriteJob: for any Job whose raw fields are compact JSON, WriteJob
// writes exactly WriteJSON's bytes, and SplitJob splits them back into
// the id and the rest (or declines, and then only for a body holding
// \ufffd or an id that is not plain ASCII).
func FuzzWriteJob(f *testing.F) {
	f.Add("job-00000001", "done", true, "", []byte(`{"problem":"F1/case0","best_value":4,"distribution":[]}`), []byte(nil), []byte(nil))
	f.Add("job-00000002", "failed", false, "quote \" backslash \\ html <&> newline\n control \x01\x7f separator \u2028\u2029 é \xff\xfe", []byte(nil), []byte(nil), []byte(nil))
	f.Add("n1.job-3", "running", false, "", []byte(nil), []byte(`[{"iter":0,"best_energy":-1.5e-7}]`), []byte("{\"iter\":3,\"s\":\"<\u2028>\"}"))
	f.Add("id \"x\"\t", "queued", false, "\b\f\r\t", []byte(`null`), []byte(`"<&>"`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, id, status string, cached bool, errMsg string, result, telemetry, progress []byte) {
		j := Job{JobID: id, Status: Status(status), Cached: cached, Error: errMsg,
			Result: compactOrEmpty(result), Telemetry: compactOrEmpty(telemetry), Progress: compactOrEmpty(progress)}
		rec := httptest.NewRecorder()
		WriteJob(rec, http.StatusAccepted, j)
		want := writeJSONBody(j)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("WriteJob wrote\n  %q\nWriteJSON writes\n  %q", got, want)
		}
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("WriteJob answered %d %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		gotID, rest, ok := SplitJob(want)
		if !ok {
			plain := true
			for _, c := range []byte(id) {
				plain = plain && c >= 0x20 && c <= 0x7e && c != '"' && c != '\\'
			}
			if plain && !bytes.Contains(want, []byte(`\ufffd`)) {
				t.Fatalf("SplitJob declined %q", want)
			}
			return
		}
		if gotID != id || !bytes.Equal(append(want[:len(want)-len(rest):len(want)-len(rest)], rest...), want) {
			t.Fatalf("SplitJob(%q) = %q, %q", want, gotID, rest)
		}
	})
}

// FuzzDecodeBatchRequest: the strict decoder never panics on a batch
// body, and a batch it accepts survives a re-encode and decode, its specs
// compared compacted.
func FuzzDecodeBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"spec":{"family":"FLP","scale":1,"case":0},"config":{"seed":7}},{"spec":{"problem":{"version":1}},"wait_ms":5}]}`,
		`{"items":[]}`, `{"items":null}`, `{"items":[{}]}`, `{"items":[{"bogus":1}]}`,
		`{"items":[{"spec":{"family":"KPP"},"config":{"device":"kyiv","shots":256,"warm_start":true},"timeout_ms":9}]} trailing`,
		`{"Items":[{"Spec":[1,"<&>"]}]}`, `{"items":{}}`, `[]`, `null`, `{"items":[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		if Decode(bytes.NewReader(data), &req) != nil {
			return
		}
		again := writeJSONBody(req)
		var back BatchRequest
		if err := Decode(bytes.NewReader(again), &back); err != nil {
			t.Fatalf("decode of re-encoded %q: %v", again, err)
		}
		if len(back.Items) != len(req.Items) {
			t.Fatalf("round trip changed the item count: %d → %d", len(req.Items), len(back.Items))
		}
		for i, it := range req.Items {
			if len(it.Spec) > 0 {
				it.Spec = compactOrEmpty(it.Spec)
			}
			b := back.Items[i]
			if !bytes.Equal(it.Spec, b.Spec) || it.Config != b.Config || it.WaitMS != b.WaitMS || it.TimeoutMS != b.TimeoutMS {
				t.Fatalf("item %d changed in the round trip:\n  first:  %+v\n  second: %+v", i, it, b)
			}
		}
	})
}

// TestRouteCountersPerStatusCode: concurrent requests on one route count
// exactly once each under their own status code, whichever request
// resolves a code's counter first.
func TestRouteCountersPerStatusCode(t *testing.T) {
	reg := metrics.NewRegistry()
	codes := []int{http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests, http.StatusUnprocessableEntity}
	h := NewHandler(RouteMetrics{Registry: reg, DurationName: "req_seconds", CountName: "req_total"}, Handlers{
		Solve: func(w http.ResponseWriter, r *http.Request) {
			code, _ := strconv.Atoi(r.URL.Query().Get("code"))
			w.WriteHeader(code)
		},
	})
	const perCode = 50
	var wg sync.WaitGroup
	for i := 0; i < perCode; i++ {
		for _, code := range codes {
			wg.Add(1)
			go func(code int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve?code="+strconv.Itoa(code), nil))
			}(code)
		}
	}
	wg.Wait()
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, code := range codes {
		want := fmt.Sprintf(`req_total{route="solve",code="%d"} %d`, code, perCode)
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, text.String())
		}
	}
}
