package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"rasengan/internal/problems"
)

func TestForEachParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		cfg := Config{Workers: workers}
		var hits [37]int32
		cfg.forEachParallel(len(hits), func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachParallelZeroItems(t *testing.T) {
	cfg := Config{Workers: 4}
	called := false
	cfg.forEachParallel(0, func(i int) { called = true })
	if called {
		t.Error("zero items should not invoke fn")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable([]string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yyyy", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All rows should have the same column start for the second column.
	idx := strings.Index(lines[0], "long-header")
	if strings.Index(lines[2], "1") != idx || strings.Index(lines[3], "22") != idx {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Cases != 2 || c.MaxIter != 40 || c.Layers != 5 || c.MaxDenseQubits != 14 {
		t.Errorf("scaled defaults wrong: %+v", c)
	}
	f := Config{Full: true}.withDefaults()
	if f.Cases != 10 || f.MaxIter != 300 || f.MaxDenseQubits != 21 {
		t.Errorf("full defaults wrong: %+v", f)
	}
}

func TestRunAlgorithmUnknown(t *testing.T) {
	p := problems.FLP(1, 0)
	ref, err := problems.ExactReference(p)
	if err != nil {
		t.Fatal(err)
	}
	out := runAlgorithm("nonsense", p, ref, Config{}.withDefaults(), nil, 1)
	if out.Err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunAlgorithmDenseCapSkip(t *testing.T) {
	p := problems.GCP(4, 0) // 24 vars
	ref := problems.Reference{Opt: 1}
	cfg := Config{MaxDenseQubits: 12}.withDefaults()
	cfg.MaxDenseQubits = 12
	out := runAlgorithm("hea", p, ref, cfg, nil, 1)
	if out.Err == nil || !strings.Contains(out.Err.Error(), "skipped") {
		t.Errorf("dense cap not enforced: %v", out.Err)
	}
}

func TestFmtF(t *testing.T) {
	cases := map[float64]string{
		0:      "0.00",
		0.0042: "0.0042",
		3.14:   "3.14",
		12345:  "12345",
	}
	for in, want := range cases {
		if got := fmtF(in); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", in, got, want)
		}
	}
}
