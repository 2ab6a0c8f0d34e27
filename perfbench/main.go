// Command perfbench is the repository's end-to-end benchmark: two
// workloads that run the solve stack from the compiled kernels up to the
// cluster gateway, print every end-to-end metric by name and unit, and
// check every result payload. With -trace 1 it prints the per-layer
// metrics of the same workloads instead. See README.md.
//
//	bash perfbench/run.sh -workload solve-exact -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The names and units
// here are the ones BENCHMARK.json lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "kB"},
	{"live_heap_mb", "MB"},
	{"arg_mean", "ratio"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0 there.
var perLayer = []metricDef{
	{"core.basis_ms_per_solve", "ms"},
	{"core.schedule_ms_per_solve", "ms"},
	{"core.executor_build_ms_per_solve", "ms"},
	{"core.compile_share", "ratio"},
	{"core.iteration_ms_per_solve", "ms"},
	{"core.eval_us_mean", "us"},
	{"core.final_eval_ms_per_solve", "ms"},
	{"optimize.iterations_per_solve", "count"},
	{"optimize.evals_per_solve", "count"},
	{"quantum.segment_ms_per_solve", "ms"},
	{"quantum.sample_ms_per_solve", "ms"},
	{"quantum.compiled_states", "count"},
	{"quantum.compiled_pairs", "count"},
	{"quantum.sweep_bytes_computed", "bytes"},
	{"quantum.sweep_ns_per_state", "ns"},
	{"parallel.cpu_utilization", "ratio"},
	{"parallel.speedup_vs_1_worker", "ratio"},
	{"service.hit_handler_ms_p50", "ms"},
	{"service.spec_build_us", "us"},
	{"service.payload_bytes_mean", "bytes"},
	{"service.queue_wait_ms_mean", "ms"},
	{"service.exec_ms_mean", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.rejected_ratio", "ratio"},
	{"store.fsyncs_per_accepted_job", "count"},
	{"store.journal_append_ms_p50", "ms"},
	{"store.replay_ms", "ms"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.affinity_ratio", "ratio"},
	{"cluster.backend_balance", "ratio"},
	{"cluster.retries_per_request", "count"},
	{"cluster.failovers_total", "count"},
	{"cluster.hedges_total", "count"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"load.generator_lag_ms_p99", "ms"},
	{"obs.tracing_overhead_pct", "%"},
}

// env is what every workload receives.
type env struct {
	root    string        // checkout root
	work    string        // scratch directory of this run, removed at exit
	seed    int64         // workload seed
	seconds time.Duration // measured time of the run
	trace   bool          // per-layer run instead of the end-to-end run

	cpuStart [2]uint64 // host CPU ticks at the start: [steal, total]
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	metrics   map[string]float64
	record    map[string]any // run-record fields specific to the workload
	problems  []string       // failed validity checks other than payloads
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, record: map[string]any{}}
}

// invalid records a failed validity check.
func (o *outcome) invalid(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// Window sizes, in samples, of the latency percentiles: the smallest
// that leave ten samples beyond a p99 and a p90.
const (
	hitWindow   = 1000
	solveWindow = 100
)

// pct stores the q-percentile of samples (in completion order) as metric
// name: the median over consecutive windows of window samples, the last
// window taking the remainder, so one disturbed stretch of a run moves
// it little. It records the sample and window counts; a window with too
// few samples beyond the percentile fails the run's checks.
func (o *outcome) pct(name string, samples []float64, q float64, window int) {
	n := 1
	if window > 0 {
		n = max(len(samples)/window, 1)
	}
	var vals []float64
	for i := 0; i < n; i++ {
		hi := (i + 1) * window
		if i == n-1 {
			hi = len(samples)
		}
		v, err := percentile(samples[i*window:hi], q)
		if err != nil {
			o.invalid("%s: %v", name, err)
		}
		vals = append(vals, v)
	}
	o.metrics[name] = median(vals)
	o.record["samples."+name] = len(samples)
	o.record["windows."+name] = n
}

// recordTail puts a percentile in the run record only. The serve-mixed
// cold-solve percentiles and open-loop hit percentiles are no end-to-end
// metrics: a hit's p50 there is mostly the time an idle virtual machine
// takes to wake its processors, which follows the host's load (the hit
// probe times the same path awake); its p99 measures how long it waits
// for a processor a concurrent solve holds
// (bounded by the Go scheduler's 10 ms preemption quantum), and the cold
// solves, about 200 a run, carry the machine's load and fsync noise;
// across sets of ten runs of one build on a 2-vCPU machine their spreads
// reached 0.26–0.6 of the median, beyond the largest bound (0.25) the
// benchmark may set. Every end-to-end metric is reported on every
// workload, so the solve p90, steady on solve-exact, stays in the record
// there too. The record keeps them for reading a run.
func (o *outcome) recordTail(name string, samples []float64, q float64, window int) {
	o.pct(name, samples, q, window)
	o.record[name] = o.metrics[name]
	delete(o.metrics, name)
}

type workload struct {
	name string
	run  func(e *env, c *checker) (*outcome, error)
}

var workloads = []workload{
	{"solve-exact", runSolveExact},
	{"serve-mixed", runServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		root      = flag.String("root", ".", "checkout root (holds go.mod and internal/)")
		name      = flag.String("workload", "", "workload: solve-exact or serve-mixed")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 35, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
		steady    = flag.Int("steady", 0, "steadiness mode: run each workload this many times (seeds 1..K) and print spreads")
		sets      = flag.Int("sets", 1, "steadiness mode: number of sets of K runs to compare")
		only      = flag.String("workloads", "", "steadiness mode: comma-separated workloads (default all)")
		writeRefs = flag.Bool("write-refs", false, "recompute perfbench/refs.json by solving every key through the library")
	)
	flag.Parse()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	switch {
	case *writeRefs:
		if err := regenerateRefs(absRoot); err != nil {
			fatal(err)
		}
		return
	case *steady > 0:
		if err := runSteady(absRoot, *steady, *sets, *only, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	e := &env{root: absRoot, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rf, err := loadRefs(filepath.Join(absRoot, "perfbench", "refs.json"))
	if err != nil {
		fatal(err)
	}
	e.work, err = os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(e.work)

	c := newChecker(rf.Workloads[w.name])
	e.cpuStart = hostCPU()
	out, err := w.run(e, c)
	if err != nil {
		os.RemoveAll(e.work)
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	report(e, w, c, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the run record, then the result object as the last line.
func report(e *env, w workload, c *checker, out *outcome) {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			out.invalid("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.invalid("metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}

	failures, refHits, keys, firstErr := c.stats()
	rec := runRecord(e, w.name)
	for k, v := range out.record {
		rec[k] = v
	}
	rec["payload_keys"] = keys
	rec["payloads_checked_against_refs"] = refHits
	rec["check_failures"] = failures
	if firstErr != "" {
		rec["first_check_failure"] = firstErr
	}
	if len(out.problems) > 0 {
		rec["invalid"] = out.problems
	}
	line, err := json.Marshal(rec)
	if err != nil {
		line, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	fmt.Println("run_record", string(line))

	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	result := map[string]any{
		"correct":   failures == 0 && len(out.problems) == 0,
		"attempted": attempted,
		"failed":    failures,
		"metrics":   metrics,
	}
	line, _ = json.Marshal(result)
	fmt.Println(string(line))
}

// runRecord describes the machine and toolchain a run measured on.
func runRecord(e *env, name string) map[string]any {
	return map[string]any{
		"workload":    name,
		"seed":        e.seed,
		"seconds":     e.seconds.Seconds(),
		"trace":       e.trace,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_commit":  gitCommit(e.root),
		"data_dir_fs": filesystem(e.work),
		"time_utc":    time.Now().UTC().Format(time.RFC3339),
		"host_steal":  stealShare(e.cpuStart, hostCPU()),
	}
}

// hostCPU reads the steal and total ticks of every CPU of the host from
// /proc/stat; zeros where it cannot.
func hostCPU() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	// user nice system idle iowait irq softirq steal; guest time, which
	// follows, is already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		out[1] += v
		if i == 7 {
			out[0] = v
		}
	}
	return out
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests between two readings: a run with a large share measured
// a busy host, whatever the program did.
func stealShare(from, to [2]uint64) float64 {
	if to[1] <= from[1] {
		return 0
	}
	return float64(to[0]-from[0]) / float64(to[1]-from[1])
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout without one (an exported tree) reports so.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown (" + ref + ")"
}

// filesystem names the filesystem holding dir: fsync cost, and so the
// journal's, depends on it.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	pauseNS uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// phase holds the resource use of one measured phase of ops operations.
type phase struct {
	ops        int
	start, end usage
}

func (p phase) wall() time.Duration { return p.end.wall.Sub(p.start.wall) }
func (p phase) perSecond() float64  { return float64(p.ops) / p.wall().Seconds() }
func (p phase) cpuMSPerOp() float64 {
	return float64(p.end.cpu-p.start.cpu) / 1e6 / float64(max(p.ops, 1))
}
func (p phase) allocKBPerOp() float64 {
	return float64(p.end.alloc-p.start.alloc) / 1024 / float64(max(p.ops, 1))
}
func (p phase) utilization() float64 {
	return float64(p.end.cpu-p.start.cpu) / (float64(p.wall()) * float64(runtime.GOMAXPROCS(0)))
}

// setResources stores the end-to-end resource metrics of the measured
// phase: rate and CPU as the median over its windows, so that a burst of
// outside load in one window moves them little; allocation over the whole
// phase, which outside load does not move but the mix of one window does;
// then the live heap after two forced collections (the second empties
// what sync.Pool kept through the first).
func (o *outcome) setResources(whole phase, windows []phase) {
	if len(windows) == 0 {
		o.invalid("the measured phase completed no window")
		windows = []phase{{}}
	}
	o.metrics["throughput_per_s"] = medianOf(windows, phase.perSecond)
	o.metrics["cpu_ms_per_op"] = medianOf(windows, phase.cpuMSPerOp)
	o.metrics["alloc_kb_per_op"] = whole.allocKBPerOp()
	o.record["windows"] = len(windows)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.metrics["live_heap_mb"] = float64(ms.HeapInuse) / (1 << 20)
	o.record["heap_alloc_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

func medianOf(ws []phase, f func(phase) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = f(w)
	}
	return median(vals)
}

// medianRate runs fn rounds times and returns the median of ops/second.
func medianRate(rounds, ops int, fn func()) float64 {
	rates := make([]float64, rounds)
	for i := range rates {
		t0 := time.Now()
		fn()
		rates[i] = float64(ops) / time.Since(t0).Seconds()
	}
	return median(rates)
}

// setRuntime stores the traced phase's garbage-collector metrics.
func (o *outcome) setRuntime(p phase) {
	o.metrics["runtime.gc_cycles_per_1k_ops"] = float64(p.end.numGC-p.start.numGC) * 1000 / float64(max(p.ops, 1))
	o.metrics["runtime.gc_pause_ms_total"] = float64(p.end.pauseNS-p.start.pauseNS) / 1e6
}

// overhead is the tracing overhead: CPU per op of the traced phase over
// that of the untraced phase, in percent.
func overhead(untraced, traced phase) float64 {
	return (traced.cpuMSPerOp()/untraced.cpuMSPerOp() - 1) * 100
}

// zeroLayers fills every per-layer metric the workload did not set with
// 0: the workload does no work in that layer.
func (o *outcome) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := o.metrics[d.name]; !ok {
			o.metrics[d.name] = 0
		}
	}
}
