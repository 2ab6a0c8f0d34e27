package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rasengan/internal/problems"
)

var updateCompilePins = flag.Bool("update", false, "regenerate testdata/compile_pins.json from the current compile path")

// compilePin fingerprints the one-shot compile of one instance: the
// transition vector pool BuildBasis returns and the operator sequence
// BuildSchedule keeps, both in order. Any drift in either — a vector
// simplified differently, the pool reordered, an operator pruned or kept
// — changes every solve downstream, so it fails the gate until the change
// is acknowledged with -update.
type compilePin struct {
	Label      string `json:"label"`
	Case       int    `json:"case"`
	NumVectors int    `json:"num_vectors"`
	NumOps     int    `json:"num_ops"`
	BasisHash  string `json:"basis_sha256"`
	OpsHash    string `json:"ops_sha256"`
}

const compilePinsPath = "testdata/compile_pins.json"

// hashVectors digests vectors in order as (length, entries...) records of
// little-endian int64s.
func hashVectors(vs [][]int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, u := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(u)))
		h.Write(buf[:])
		for _, v := range u {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func computeCompilePins(t *testing.T) []compilePin {
	t.Helper()
	var pins []compilePin
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			p := b.Generate(c)
			basis, err := BuildBasis(p, BasisOptions{})
			if err != nil {
				t.Fatalf("%s case %d: %v", b.Label(), c, err)
			}
			sched := BuildSchedule(p, basis, ScheduleOptions{})
			ops := make([][]int64, len(sched.Ops))
			for i, tr := range sched.Ops {
				ops[i] = tr.U
			}
			pins = append(pins, compilePin{
				Label:      b.Label(),
				Case:       c,
				NumVectors: len(basis.Vectors),
				NumOps:     len(ops),
				BasisHash:  hashVectors(basis.Vectors),
				OpsHash:    hashVectors(ops),
			})
		}
	}
	return pins
}

// TestCompileGolden compares the compile output of every suite cell,
// cases 0–2, against the committed pins. Run with -update only after an
// intentional change to what the compile path produces:
//
//	go test ./internal/core -run TestCompileGolden -update
func TestCompileGolden(t *testing.T) {
	got := computeCompilePins(t)

	if *updateCompilePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(compilePinsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compilePinsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), compilePinsPath)
		return
	}

	data, err := os.ReadFile(compilePinsPath)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	var want []compilePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("pin file has %d instances, the suite has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("compile output drifted:\n  pinned:  %+v\n  current: %+v", want[i], got[i])
		}
	}
}
