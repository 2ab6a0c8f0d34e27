// Command rasengan-bench regenerates the tables and figures of the
// paper's evaluation section.
//
// Usage:
//
//	rasengan-bench -exp table1
//	rasengan-bench -exp table2 -cases 5 -iters 100
//	rasengan-bench -exp fig14 -full
//	rasengan-bench -exp all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rasengan"
	"rasengan/internal/experiments"
	"rasengan/internal/parallel"
)

// renderer is what every experiment harness produces.
type renderer interface{ Render() string }

func main() {
	log.SetFlags(0)
	log.SetPrefix("rasengan-bench: ")

	var (
		exp       = flag.String("exp", "all", "experiment: table1, table2, fig9..fig17, summary, ablation, gallery, or all")
		cases     = flag.Int("cases", 0, "cases per benchmark (0 = scaled default)")
		iters     = flag.Int("iters", 0, "optimizer iterations (0 = scaled default)")
		shots     = flag.Int("shots", 0, "shots per execution (0 = experiment default)")
		layers    = flag.Int("layers", 0, "baseline layers (0 = 5)")
		seed      = flag.Int64("seed", 1, "base seed")
		full      = flag.Bool("full", false, "paper-scale parameters (slow)")
		maxDense  = flag.Int("maxdense", 0, "dense-baseline qubit cap (0 = default)")
		engine    = flag.String("engine", "", "Rasengan execution engine: map or compiled (default: compiled)")
		jsonDir   = flag.String("json", "", "also write each experiment's structured result as JSON into this directory")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON of every solve's stage spans (open in chrome://tracing or Perfetto)")
		ckptDir   = flag.String("checkpoint", "", "checkpoint every Rasengan solve into this directory and resume from matching checkpoints, so an interrupted sweep continues instead of restarting")
	)
	wf := parallel.AddFlags(flag.CommandLine)
	flag.Parse()

	workers, err := wf.Apply()
	if err != nil {
		log.Fatal(err)
	}
	if *cases < 0 || *iters < 0 || *shots < 0 || *layers < 0 || *maxDense < 0 {
		log.Fatal("-cases, -iters, -shots, -layers, and -maxdense must be >= 0")
	}
	if !rasengan.ValidEngine(*engine) {
		log.Fatalf("-engine must be %q or %q (got %q)", rasengan.EngineMap, rasengan.EngineCompiled, *engine)
	}
	// Ctrl-C cancels the in-flight experiment cooperatively (solves stop
	// at their next iteration boundary) instead of discarding hours of a
	// sweep to a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	cfg := experiments.Config{
		Cases:          *cases,
		MaxIter:        *iters,
		Shots:          *shots,
		Layers:         *layers,
		Seed:           *seed,
		Full:           *full,
		MaxDenseQubits: *maxDense,
		Engine:         *engine,
		Workers:        workers,
		Ctx:            ctx,
		CheckpointDir:  *ckptDir,
	}
	// One recorder spans the whole run: every Rasengan solve any selected
	// experiment performs lands in the same trace, each on its own tracks.
	var rec *rasengan.TraceRecorder
	if *traceFile != "" {
		rec = rasengan.NewTraceRecorder()
		cfg.Spans = rec
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	runners := map[string]func() (renderer, error){
		"table1": func() (renderer, error) { return experiments.Table1(cfg) },
		"table2": func() (renderer, error) { return experiments.Table2(cfg) },
		"fig9":   func() (renderer, error) { return experiments.Fig9(cfg, 0) },
		"fig10": func() (renderer, error) {
			points := 6
			if *full {
				points = 0 // all ten sizes, up to 105 variables
			}
			return experiments.Fig10(cfg, points)
		},
		"fig11":    func() (renderer, error) { return experiments.Fig11(cfg) },
		"fig12":    func() (renderer, error) { return experiments.Fig12(cfg) },
		"fig13":    func() (renderer, error) { return experiments.Fig13(cfg) },
		"fig14":    func() (renderer, error) { return experiments.Fig14(cfg) },
		"fig15":    func() (renderer, error) { return experiments.Fig15(cfg) },
		"fig16":    func() (renderer, error) { return experiments.Fig16(cfg) },
		"fig17":    func() (renderer, error) { return experiments.Fig17(cfg) },
		"summary":  func() (renderer, error) { return experiments.Summary(cfg) },
		"ablation": func() (renderer, error) { return experiments.Ablation(cfg) },
		"gallery":  func() (renderer, error) { return experiments.Gallery(cfg, "") },
	}
	order := []string{"table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "summary", "ablation", "gallery"}

	var names []string
	if *exp == "all" {
		names = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				log.Fatalf("unknown experiment %q (have %s)", name, strings.Join(order, ", "))
			}
			names = append(names, name)
		}
	}

	for _, name := range names {
		if ctx.Err() != nil {
			log.Fatal("interrupted, skipping remaining experiments")
		}
		start := time.Now()
		res, err := runners[name]()
		if err != nil {
			if ctx.Err() != nil {
				log.Fatalf("%s: interrupted", name)
			}
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("==== %s (ran in %.1fs) ====\n\n", name, time.Since(start).Seconds())
		fmt.Println(res.Render())
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, name+".json")
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				log.Fatalf("%s: marshal: %v", name, err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Fatalf("%s: write: %v", name, err)
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}

	if rec != nil {
		if err := rec.WriteChromeTraceFile(*traceFile); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		fmt.Printf("(wrote %s: %d spans; open in chrome://tracing or https://ui.perfetto.dev)\n",
			*traceFile, rec.Len())
	}
}
