package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rasengan/internal/api"
)

// oracleRelay is the relay as it was before payload bytes were passed
// through: decode the envelope, rename the job, encode it again.
func oracleRelay(w http.ResponseWriter, code int, body []byte, rename func(string) string) {
	var job api.Job
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&job); err != nil {
		api.WriteError(w, http.StatusBadGateway, "bad backend response: %v", err)
		return
	}
	job.JobID = rename(job.JobID)
	api.WriteJSON(w, code, job)
}

func relayRename(upstream string) string { return gatewayJobID("n1", upstream) }

// relayed answers one upstream body through relayJob.
func relayed(code int, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	relayJob(rec, &http.Response{StatusCode: code, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(bytes.NewReader(body))}, relayRename)
	return rec
}

// compactRaw returns raw compacted, or nil when raw is not JSON.
func compactRaw(raw []byte) json.RawMessage {
	var buf bytes.Buffer
	if json.Compact(&buf, raw) != nil {
		return nil
	}
	return buf.Bytes()
}

// FuzzRelayJob: the relay never panics and answers a body that is not
// valid JSON with a 502; for any envelope WriteJSON could have written, it
// answers exactly what decoding, renaming and WriteJSON answer.
func FuzzRelayJob(f *testing.F) {
	f.Add("job-00000001", "done", true, "", []byte(`{"problem":"F1/case0","best_value":4,"distribution":[{"x":"10","p":1,"f":4}]}`), []byte(nil), 200)
	f.Add("job-00000002", "failed", false, "quote \" backslash \\ <&> newline\n ctl \x01 sep \u2028 é \xff", []byte(nil), []byte(nil), 200)
	f.Add("job-3", "running", false, "", []byte(nil), []byte(`{"iter":2,"best_energy":-1.5}`), 202)
	f.Add("job \"4\"", "queued", false, "\ufffd", []byte(`null`), []byte(`[]`), 202)
	f.Add("", "", false, "", []byte(`{"job_id":"x"} trailing`), []byte(`{"job_id":"x","status":1}`), 200)
	f.Fuzz(func(t *testing.T, id, status string, cached bool, errMsg string, result, progress []byte, code int) {
		if code != http.StatusAccepted {
			code = http.StatusOK
		}
		// Arbitrary upstream bytes.
		for _, body := range [][]byte{result, progress} {
			if rec := relayed(code, body); !json.Valid(body) && rec.Code != http.StatusBadGateway {
				t.Fatalf("relay answered %d to invalid JSON %q", rec.Code, body)
			}
		}
		// An envelope WriteJSON wrote.
		job := api.Job{JobID: id, Status: api.Status(status), Cached: cached, Error: errMsg,
			Result: compactRaw(result), Progress: compactRaw(progress)}
		want := httptest.NewRecorder()
		api.WriteJSON(want, code, job)
		body := want.Body.Bytes()
		oracle := httptest.NewRecorder()
		oracleRelay(oracle, code, body, relayRename)
		got := relayed(code, body)
		if got.Code != oracle.Code || got.Header().Get("Content-Type") != oracle.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), oracle.Body.Bytes()) {
			t.Fatalf("relay of %q:\n  got    %d %q\n  oracle %d %q", body, got.Code, got.Body, oracle.Code, oracle.Body)
		}
	})
}
