// Package experiments implements the harnesses that regenerate every
// table and figure of the paper's evaluation section (Table 1, Table 2,
// Figures 9–17). Each harness returns a structured result with a Render
// method that prints the same rows/series the paper reports.
//
// The default configuration is scaled down from the paper's 40-CPU-hour
// setup (fewer cases per benchmark, fewer optimizer iterations), exactly
// as the original artifact's reproduction scripts do; Full mode restores
// the paper-scale parameters.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"rasengan/internal/baselines"
	"rasengan/internal/core"
	"rasengan/internal/device"
	"rasengan/internal/metrics"
	"rasengan/internal/obs"
	"rasengan/internal/parallel"
	"rasengan/internal/problems"
	"rasengan/internal/store"
)

// Config shapes an experiment run.
type Config struct {
	// Cases per benchmark (paper: 100; scaled default: 2).
	Cases int
	// MaxIter bounds optimizer iterations (paper: 300; default 40).
	MaxIter int
	// Layers for the QAOA/HEA baselines (paper and default: 5).
	Layers int
	// Shots per circuit execution (paper and default: 1024; 0 = exact).
	Shots int
	// MaxDenseQubits skips dense-simulated baselines above this width
	// (default 14; raise for full runs at the cost of memory/time).
	MaxDenseQubits int
	// Trajectories per noisy execution (default 8).
	Trajectories int
	// Engine selects the Rasengan execution engine (core.EngineMap or
	// core.EngineCompiled); empty uses the core default. Both engines are
	// bit-identical, so this only changes wall-clock time.
	Engine string
	Seed   int64
	// Full restores paper-scale parameters where feasible.
	Full bool
	// Workers bounds concurrent case evaluations in the sweep-style
	// experiments (Table 2, Figure 14), sharing the process-wide pool in
	// internal/parallel. 0 uses the pool default (all cores, or whatever
	// parallel.SetWorkers installed); 1 forces sequential execution.
	// Results are bit-identical either way: every case owns its seed and
	// aggregation is slot-indexed.
	Workers int
	// Ctx, when non-nil, cancels the sweep cooperatively: solves in
	// flight stop at their next iteration boundary and remaining cases
	// report the context's error. Nil means no cancellation.
	Ctx context.Context
	// Spans, when non-nil, receives stage spans from every Rasengan solve
	// an experiment runs (one shared recorder; each solve allocates its
	// own tracks, so concurrent cases stay untangled). Wired by
	// rasengan-bench -trace.
	Spans *obs.Recorder
	// CheckpointDir, when non-empty, makes every Rasengan solve in the
	// experiments write a resumable checkpoint under this directory
	// (one file per problem × seed) and resume from a matching valid
	// checkpoint when one exists, so an interrupted sweep continues
	// instead of restarting — results stay bit-identical either way.
	// Wired by rasengan-bench -checkpoint.
	CheckpointDir string
}

// telemetry returns the solver telemetry options the experiments attach
// to every Rasengan solve.
func (c Config) telemetry() core.TelemetryOptions {
	return core.TelemetryOptions{Spans: c.Spans}
}

// persistence wires CheckpointDir into one solve's options: resume from
// an existing valid checkpoint for this (problem, options) pair, and
// keep checkpointing into the same file. A checkpoint that fails to
// parse or validate (different options, stale format) is ignored — the
// solve simply starts fresh and overwrites it.
func (c Config) persistence(p *problems.Problem, opts core.Options) core.Options {
	if c.CheckpointDir == "" {
		return opts
	}
	path := filepath.Join(c.CheckpointDir, fmt.Sprintf("%s-seed%d.ckpt", sanitizeName(p.Name), opts.Seed))
	if data, err := store.LoadCheckpoint(path); err == nil {
		if ck, err := core.ParseCheckpoint(data); err == nil && ck.Validate(p, opts) == nil {
			opts.Resume = ck
		}
	}
	opts.Checkpoint = &core.CheckpointOptions{
		// Sweeps favor low overhead over fine granularity.
		Every: 5,
		Write: func(data []byte) error { return store.WriteFileAtomicNoSync(path, data, 0o644) },
	}
	return opts
}

// sanitizeName maps a problem name onto a safe filename stem.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) withDefaults() Config {
	if c.Cases <= 0 {
		c.Cases = 2
		if c.Full {
			c.Cases = 10
		}
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 40
		if c.Full {
			c.MaxIter = 300
		}
	}
	if c.Layers <= 0 {
		c.Layers = 5
	}
	if c.MaxDenseQubits <= 0 {
		c.MaxDenseQubits = 14
		if c.Full {
			c.MaxDenseQubits = 21
		}
	}
	if c.Trajectories <= 0 {
		c.Trajectories = 8
	}
	return c
}

func (c Config) baselineOptions(dev *device.Device, seed int64) baselines.Options {
	return baselines.Options{
		Layers:       c.Layers,
		MaxIter:      c.MaxIter,
		Shots:        c.Shots,
		Device:       dev,
		Trajectories: c.Trajectories,
		Seed:         seed,
	}
}

// Algorithms in the canonical comparison order of Table 2.
var Algorithms = []string{"hea", "p-qaoa", "choco-q", "rasengan"}

// AlgoOutcome captures one (algorithm, case) run in experiment-ready form.
type AlgoOutcome struct {
	Algorithm string
	ARG       float64
	Depth     int
	Params    int
	InRate    float64
	Latency   metrics.Latency
	Err       error
}

// runAlgorithm dispatches one algorithm over one problem instance against
// a known reference.
func runAlgorithm(algo string, p *problems.Problem, ref problems.Reference, cfg Config, dev *device.Device, seed int64) AlgoOutcome {
	out := AlgoOutcome{Algorithm: algo}
	switch algo {
	case "rasengan":
		res, err := core.Solve(cfg.ctx(), p, cfg.persistence(p, core.Options{
			MaxIter: cfg.MaxIter,
			Seed:    seed,
			Exec: core.ExecOptions{
				Shots:        cfg.Shots,
				Device:       dev,
				Trajectories: cfg.Trajectories,
				Engine:       cfg.Engine,
			},
			Telemetry: cfg.telemetry(),
		}))
		if err != nil {
			out.Err = err
			return out
		}
		out.ARG = metrics.ARG(ref.Opt, res.Expectation)
		out.Depth = res.SegmentDepth
		out.Params = res.NumParams
		out.InRate = res.InConstraintsRate
		out.Latency = metrics.Latency{
			QuantumMS:   res.Latency.QuantumMS,
			ClassicalMS: res.Latency.ClassicalMS,
			CompileMS:   res.Latency.CompileMS,
		}
		return out
	case "hea", "p-qaoa", "frozen-qubits", "red-qaoa", "choco-q":
		if algo != "choco-q" && p.N > cfg.MaxDenseQubits {
			out.Err = fmt.Errorf("experiments: %s skipped on %s: %d qubits exceed dense cap %d", algo, p.Name, p.N, cfg.MaxDenseQubits)
			return out
		}
		opts := cfg.baselineOptions(dev, seed)
		var res *baselines.Result
		var err error
		switch algo {
		case "hea":
			res, err = baselines.HEA(p, opts)
		case "p-qaoa":
			res, err = baselines.PQAOA(p, opts)
		case "frozen-qubits":
			res, err = baselines.FrozenQubits(p, 1, opts)
		case "red-qaoa":
			res, err = baselines.RedQAOA(p, opts)
		case "choco-q":
			res, err = baselines.ChocoQ(p, opts)
		}
		if err != nil {
			out.Err = err
			return out
		}
		out.ARG = metrics.ARG(ref.Opt, res.Expectation)
		out.Depth = res.Depth
		out.Params = res.NumParams
		out.InRate = res.InConstraintsRate
		out.Latency = res.Latency
		return out
	default:
		out.Err = fmt.Errorf("experiments: unknown algorithm %q", algo)
		return out
	}
}

// referenceFor computes the instance reference, preferring the exact DFS
// enumerator and falling back to family-specific solvers for wide
// instances.
func referenceFor(p *problems.Problem) (problems.Reference, error) {
	if p.N <= 24 {
		return problems.ExactReference(p)
	}
	if p.Family == "FLP" {
		return problems.FLPReference(p)
	}
	basis, err := core.BuildBasis(p, core.BasisOptions{})
	if err != nil {
		return problems.Reference{}, err
	}
	feas := problems.FeasibleBFS(p, basis.Vectors, 200000)
	return problems.ReferenceFromSet(p, feas)
}

// forEachParallel runs fn(i) for i in [0, n) on the shared worker pool,
// capped at the configured worker count, and blocks until all complete.
// fn must write only to i-indexed slots.
func (c Config) forEachParallel(n int, fn func(i int)) {
	parallel.ForWorkers(c.Workers, n, fn)
}

// renderTable formats a simple aligned text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0.00"
	case v < 0.01:
		return fmt.Sprintf("%.4f", v)
	case v < 100:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
