package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(5, 400, 10*time.Second, classHit)
	b := poissonSchedule(5, 400, 10*time.Second, classHit)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(6, 400, 10*time.Second, classHit); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
}

func TestScheduleMeanRate(t *testing.T) {
	const rate, span = 400.0, 2000 * time.Second
	for _, seed := range []int64{1, 2, 3} {
		sched := poissonSchedule(seed, rate, span, classHit)
		got := float64(len(sched)) / span.Seconds()
		if math.Abs(got-rate)/rate > 0.01 {
			t.Errorf("seed %d: mean rate %.2f/s, want %.0f/s within 1%%", seed, got, rate)
		}
		// Poisson gaps are exponential: mean 1/rate, standard deviation
		// equal to the mean.
		var sum, sq float64
		for i := 1; i < len(sched); i++ {
			g := (sched[i].due - sched[i-1].due).Seconds()
			sum += g
			sq += g * g
		}
		n := float64(len(sched) - 1)
		m := sum / n
		cv := math.Sqrt(sq/n-m*m) / m
		if math.Abs(m*rate-1) > 0.01 || math.Abs(cv-1) > 0.02 {
			t.Errorf("seed %d: gap mean %.6fs (want %.6fs), coefficient of variation %.3f (want 1)", seed, m, 1/rate, cv)
		}
	}
}

func TestMergeSchedulesKeepsDueOrder(t *testing.T) {
	m := mergeSchedules(
		poissonSchedule(1, 20, 5*time.Second, classCold),
		poissonSchedule(2, 1, 5*time.Second, classBatch))
	for i := 1; i < len(m); i++ {
		if m[i].due < m[i-1].due {
			t.Fatalf("merged arrival %d out of order", i)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: the helper must sort
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false},
		{0, 0.50, false},
	} {
		v, err := percentile(samples(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
		}
		if tc.ok && v != math.Ceil(tc.q*float64(tc.n)) {
			t.Errorf("n=%d q=%g: got %g, want nearest rank %g", tc.n, tc.q, v, math.Ceil(tc.q*float64(tc.n)))
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("got %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestCheckerRejectsOneByteChange(t *testing.T) {
	payload := []byte(`{"problem":"FLP-1-0","best_value":7,"expectation":7.25}`)
	changed := append([]byte(nil), payload...)
	changed[len(changed)-3] ^= 1

	// Against a committed reference.
	c := newChecker(map[string]string{"k": payloadHash(payload)})
	if !c.check("k", payload) {
		t.Fatal("reference payload rejected")
	}
	c = newChecker(map[string]string{"k": payloadHash(payload)})
	if c.check("k", changed) {
		t.Fatal("payload with one byte changed passed the reference check")
	}
	if failures, _, _, _ := c.stats(); failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}

	// Across responses, for a key refs.json does not pin.
	c = newChecker(nil)
	if !c.check("k", payload) || !c.check("k", payload) {
		t.Fatal("identical payloads rejected")
	}
	if c.check("k", changed) {
		t.Fatal("payload with one byte changed passed the consistency check")
	}
}

// TestRefsCoverEveryKey checks that refs.json pins every payload the
// library workloads can produce under any seed, and the serve workload's
// hot set and cold requests.
func TestRefsCoverEveryKey(t *testing.T) {
	rf, err := loadRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := loadInstances("..", exactMix.labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range solveRequests(exactMix, insts, 7) {
		if _, ok := rf.Workloads[exactMix.name][req.key]; !ok {
			t.Errorf("solve-exact: no reference for %s", req.key)
		}
	}
	hot, err := hotRequests()
	if err != nil {
		t.Fatal(err)
	}
	colds, err := loadInstances("..", coldLabels)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(hot, coldRequest(colds, 0), coldRequest(colds, coldRefs-1))
	for _, req := range reqs {
		if _, ok := rf.Workloads["serve-mixed"][req.key]; !ok {
			t.Errorf("serve-mixed: no reference for %s", req.key)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	bj, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []benchMetric
		defs   []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}
