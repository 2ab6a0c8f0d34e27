package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rasengan/internal/parallel"
	"rasengan/internal/problems"
)

// FuzzParseCheckpoint feeds arbitrary bytes to ParseCheckpoint and
// Validate against F1. Neither may panic, and a file the parser accepts
// must re-marshal into one it accepts again, with the same start states.
// The seeds are every checkpoint a short F1 solve writes, plus a few
// malformed or truncated files.
func FuzzParseCheckpoint(f *testing.F) {
	p := problems.FLP(1, 0)
	// One worker runs the three starts one after another, so no write is
	// coalesced with another start's and the seeds are the same 33 files
	// on every run, however loaded the machine is.
	opts := Options{MaxIter: 30, Seed: 5, Workers: parallel.Fixed(1)}
	var files [][]byte
	opts.Checkpoint = &CheckpointOptions{Write: func(data []byte) error {
		files = append(files, append([]byte(nil), data...))
		return nil
	}}
	if _, err := Solve(context.Background(), p, opts); err != nil {
		f.Fatal(err)
	}
	opts.Checkpoint = nil
	if len(files) == 0 {
		f.Fatal("the solve wrote no checkpoint")
	}
	for _, data := range files {
		f.Add(data)
	}
	last := files[len(files)-1]
	f.Add(last[:len(last)/2])
	f.Add([]byte(`{"version":1,"starts":[{"done":false,"optimizer":{"method":"cobyla"},"rng_state":"AAAA"}]}`))
	f.Add([]byte(`{"version":2,"starts":[{"done":true}]}`))
	f.Add([]byte(`{"version":1,"starts":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		_ = c.Validate(p, opts)
		again, err := json.Marshal(c.file)
		if err != nil {
			t.Fatalf("an accepted checkpoint does not re-marshal: %v", err)
		}
		c2, err := ParseCheckpoint(again)
		if err != nil {
			t.Fatalf("a re-marshalled checkpoint is refused: %v\n%s", err, again)
		}
		want, err := json.Marshal(c.file.Starts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(c2.file.Starts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("start states changed in the round trip:\n got %s\nwant %s", got, want)
		}
	})
}
