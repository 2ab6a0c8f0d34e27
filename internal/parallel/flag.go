package parallel

import (
	"flag"
	"fmt"
)

// WorkersFlag is the shared command-line surface for the worker pool.
// Every binary registers it with AddFlags instead of hand-rolling a
// -workers flag, so validation and wiring live in one place.
type WorkersFlag struct {
	workers int
}

// AddFlags registers -workers on fs.
func AddFlags(fs *flag.FlagSet) *WorkersFlag {
	w := &WorkersFlag{}
	fs.IntVar(&w.workers, "workers", 0,
		"worker-pool size for all parallel execution: noise trajectories, dense kernels, multi-start, sweeps (0 = all cores); results are identical at any setting")
	return w
}

// Apply validates the parsed value, installs the count via SetWorkers,
// and returns the effective setting. A negative count is an error —
// callers exit non-zero instead of silently defaulting.
func (w *WorkersFlag) Apply() (int, error) {
	if w.workers < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (got %d)", w.workers)
	}
	if w.workers > 0 {
		SetWorkers(w.workers)
	}
	return w.workers, nil
}
