package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rasengan/internal/device"
	"rasengan/internal/problems"
)

var updateCompilePins = flag.Bool("update", false, "regenerate the compile pin files in testdata/ from the current compile path")

// compilePin fingerprints the one-shot compile of one instance: the
// Basis summary fields, the transition vector pool BuildBasis returns and
// the operator sequence BuildSchedule keeps, both in order, the rest of
// the Schedule's dry-run bookkeeping, and what NewExecutor derives from
// the operators (segmentation, modeled shot times, per-operator gate
// costs). Any drift — a vector simplified differently, the pool
// reordered, an operator pruned or kept, a segment cut elsewhere —
// changes every solve downstream, so it fails the gate until the change
// is acknowledged with -update.
type compilePin struct {
	Label string `json:"label"`
	Case  int    `json:"case"`
	// Options names the compileVariant; empty for default options.
	Options           string `json:"options,omitempty"`
	M                 int    `json:"m"`
	TU                bool   `json:"tu"`
	SimplifySaved     int    `json:"simplify_saved"`
	UsedTernarySearch bool   `json:"used_ternary_search"`
	NumVectors        int    `json:"num_vectors"`
	NumOps            int    `json:"num_ops"`
	BasisHash         string `json:"basis_sha256"`
	OpsHash           string `json:"ops_sha256"`
	// The rest of the Schedule.
	TraceAllHash      string `json:"trace_all_sha256"`
	TraceOpsHash      string `json:"trace_ops_sha256"`
	NumReachable      int    `json:"num_reachable"`
	ReachableHash     string `json:"reachable_sha256"`
	PrunedCount       int    `json:"pruned_count"`
	EarlyStopped      bool   `json:"early_stopped"`
	TruncatedCoverage bool   `json:"truncated_coverage"`
	// The executor build: segment count and TotalCX, then digests of
	// (depth, shot-time bits) per segment and of (oneQ, twoQ, cx, depth,
	// duration bits) per distinct operator in first-occurrence order.
	NumSegments  int    `json:"num_segments"`
	TotalCX      int    `json:"total_cx"`
	SegmentsHash string `json:"segments_sha256"`
	OpCostsHash  string `json:"op_costs_sha256"`
}

const (
	compilePinsPath       = "testdata/compile_pins.json"
	compileOptionPinsPath = "testdata/compile_option_pins.json"
)

// compileVariant is a non-default option set whose compile output is
// pinned: the ablation switches, search caps small enough to stop the
// ternary search mid-level, the alternative schedule constructions, a
// fixed segment length, and a device's gate timings (which also derive
// the depth budget from its T2).
type compileVariant struct {
	name   string
	family string // "": every family
	basis  BasisOptions
	sched  ScheduleOptions
	exec   ExecOptions
}

var compileVariants = []compileVariant{
	{name: "disable-simplify", basis: BasisOptions{DisableSimplify: true}},
	{name: "search-max-vectors-16", family: "GCP", basis: BasisOptions{Search: TernarySearchOptions{MaxVectors: 16}}},
	{name: "search-node-budget-5000", family: "GCP", basis: BasisOptions{Search: TernarySearchOptions{NodeBudget: 5000}}},
	{name: "sparsest-first", sched: ScheduleOptions{SparsestFirst: true}},
	{name: "disable-prune", sched: ScheduleOptions{DisablePrune: true}},
	{name: "ops-per-segment-3", exec: ExecOptions{OpsPerSegment: 3}},
	{name: "device-kyiv", exec: ExecOptions{Device: device.Kyiv()}},
}

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

// hashWords digests words in order as little-endian uint64s.
func hashWords(ws []uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashInts(xs []int) string {
	ws := make([]uint64, len(xs))
	for i, x := range xs {
		ws[i] = uint64(x)
	}
	return hashWords(ws)
}

func compileOnce(t *testing.T, b problems.Benchmark, c int, v compileVariant) compilePin {
	t.Helper()
	p := b.Generate(c)
	basis, err := BuildBasis(p, v.basis)
	if err != nil {
		t.Fatalf("%s case %d %s: %v", b.Label(), c, v.name, err)
	}
	sched := BuildSchedule(p, basis, v.sched)
	ops := make([][]int64, len(sched.Ops))
	for i, tr := range sched.Ops {
		ops[i] = tr.U
	}
	reach := sha256.New()
	for _, x := range sched.Reachable {
		reach.Write([]byte(x.String()))
		reach.Write([]byte{'\n'})
	}
	ex, err := NewExecutor(p, sched.Ops, v.exec)
	if err != nil {
		t.Fatalf("%s case %d %s: %v", b.Label(), c, v.name, err)
	}
	var segs, costs []uint64
	for i := range ex.segments {
		segs = append(segs, uint64(ex.SegmentDepths[i]), math.Float64bits(ex.shotNS[i]))
	}
	seen := map[string]bool{}
	for i, tr := range sched.Ops {
		if k := vecKey(tr.U); !seen[k] {
			seen[k] = true
			s := ex.stats[i]
			costs = append(costs, uint64(s.oneQ), uint64(s.twoQ), uint64(s.cx), uint64(s.depth), math.Float64bits(s.durationNS))
		}
	}
	return compilePin{
		Label:             b.Label(),
		Case:              c,
		Options:           v.name,
		M:                 basis.M,
		TU:                basis.TU,
		SimplifySaved:     basis.SimplifySaved,
		UsedTernarySearch: basis.UsedTernarySearch,
		NumVectors:        len(basis.Vectors),
		NumOps:            len(ops),
		BasisHash:         hashVectors(basis.Vectors),
		OpsHash:           hashVectors(ops),
		TraceAllHash:      hashInts(sched.TraceAll),
		TraceOpsHash:      hashInts(sched.TraceOps),
		NumReachable:      len(sched.Reachable),
		ReachableHash:     hex.EncodeToString(reach.Sum(nil)),
		PrunedCount:       sched.PrunedCount,
		EarlyStopped:      sched.EarlyStopped,
		TruncatedCoverage: sched.TruncatedCoverage,
		NumSegments:       ex.NumSegments(),
		TotalCX:           ex.TotalCX,
		SegmentsHash:      hashWords(segs),
		OpCostsHash:       hashWords(costs),
	}
}

func computeCompilePins(t *testing.T) []compilePin {
	t.Helper()
	var pins []compilePin
	for _, b := range problems.Suite() {
		for c := 0; c <= 2; c++ {
			pins = append(pins, compileOnce(t, b, c, compileVariant{}))
		}
	}
	return pins
}

func computeCompileOptionPins(t *testing.T) []compilePin {
	t.Helper()
	var pins []compilePin
	for _, v := range compileVariants {
		for _, b := range problems.Suite() {
			if v.family != "" && b.Family != v.family {
				continue
			}
			for c := 0; c <= 2; c++ {
				pins = append(pins, compileOnce(t, b, c, v))
			}
		}
	}
	return pins
}

// TestCompileGolden compares the compile output of every suite cell,
// cases 0–2, against the committed pins. Run with -update only after an
// intentional change to what the compile path produces:
//
//	go test ./internal/core -run 'TestCompile(Golden|OptionPins)' -update
func TestCompileGolden(t *testing.T) {
	checkCompilePins(t, compilePinsPath, computeCompilePins(t))
}

// TestCompileOptionPins does the same for the compileVariants, which the
// default-option pins never reach.
func TestCompileOptionPins(t *testing.T) {
	checkCompilePins(t, compileOptionPinsPath, computeCompileOptionPins(t))
}

func checkCompilePins(t *testing.T, path string, got []compilePin) {
	t.Helper()
	if *updateCompilePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	var want []compilePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d instances, the suite has %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("compile output drifted:\n  pinned:  %+v\n  current: %+v", want[i], got[i])
		}
	}
}
