// Command vup-experiments regenerates the paper's tables and figures
// on the synthetic fleet and prints them as ASCII charts, optionally
// writing the underlying data series as CSV files.
//
// Usage:
//
//	vup-experiments                      # every experiment, small scale
//	vup-experiments -run fig5a           # one experiment
//	vup-experiments -scale full -csv out # study scale, CSVs into out/
//	vup-experiments -list                # list experiment IDs
//	vup-experiments -run fig5a -timing   # append the per-algorithm stage
//	                                     # timing table (Section 4.5, live)
//	vup-experiments -workers 1           # one vehicle at a time (byte-
//	                                     # identical report)
//	vup-experiments -run fig5a -trace    # per-experiment span waterfall on
//	                                     # stderr (stdout unchanged)
//
// The sweeps fan out on a bounded worker pool (internal/parallel);
// -workers caps it (default: GOMAXPROCS). Each vehicle's evaluation
// also fans its hold-out windows out over GOMAXPROCS workers, so
// -workers 1 runs one vehicle at a time, not one CPU. Reports are
// byte-identical for any -workers value: progress and wall-clock lines
// go to stderr, so stdout can be diffed across settings.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vup/internal/experiments"
	"vup/internal/fstore"
	"vup/internal/obs/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vup-experiments: ")

	var (
		runID    = flag.String("run", "all", "experiment id to run, or \"all\"")
		scale    = flag.String("scale", "small", `"small" (laptop) or "full" (study scale)`)
		csvDir   = flag.String("csv", "", "directory to write the regenerated data series as CSV (optional)")
		mdPath   = flag.String("md", "", "write a combined Markdown report to this path (optional)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		seed     = flag.Int64("seed", 1, "generation seed")
		timing   = flag.Bool("timing", false, "print the collected pipeline stage timings after the run (live Section 4.5 table)")
		workers  = flag.Int("workers", 0, "worker-pool size for the parallel sweeps (<=0: GOMAXPROCS; 1: one vehicle at a time, its windows still fan out). Reports are byte-identical at any setting")
		traced   = flag.Bool("trace", false, "trace each experiment and print its span waterfall to stderr (stdout stays byte-identical)")
		storeDir = flag.String("store-dir", "", "save the evaluation fleet as a binary store directory (internal/fstore) before running, so a vup-server can serve the exact datasets the figures used")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "small":
		cfg = experiments.Small()
	case "full":
		cfg = experiments.Full()
	default:
		log.Fatalf("unknown scale %q (want small or full)", *scale)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers

	if *storeDir != "" {
		datasets, err := experiments.Datasets(cfg)
		if err != nil {
			log.Fatalf("building evaluation fleet: %v", err)
		}
		dir, err := fstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("opening store %s: %v", *storeDir, err)
		}
		if _, err := dir.Save(datasets); err != nil {
			log.Fatalf("saving store %s: %v", *storeDir, err)
		}
		if err := dir.Close(); err != nil {
			log.Fatalf("closing store %s: %v", *storeDir, err)
		}
		log.Printf("saved %d evaluation vehicles to store %s", len(datasets), *storeDir)
	}

	ids := experiments.IDs()
	if *runID != "all" {
		ids = strings.Split(*runID, ",")
	}
	// One keep-everything collector for the whole run: figure sweeps
	// are traced end to end, and each waterfall prints to stderr so
	// stdout stays byte-identical with and without -trace.
	var collector *trace.Collector
	if *traced {
		collector = trace.NewCollector(trace.Options{SampleRate: 1, Capacity: len(ids) + 1, Seed: *seed})
	}

	var md strings.Builder
	if *mdPath != "" {
		fmt.Fprintf(&md, "# Regenerated experiments (scale %s, seed %d)\n\n", *scale, *seed)
	}
	for _, id := range ids {
		start := time.Now()
		ctx, root := collector.StartTrace(context.Background(), "experiment "+id)
		rep, err := experiments.RunContext(ctx, id, cfg)
		root.SetError(err)
		root.End()
		if collector != nil {
			if td, ok := collector.Get(root.TraceID()); ok {
				_, _ = fmt.Fprint(os.Stderr, trace.Waterfall(td))
			}
		}
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println(rep.Render())
		fmt.Println()
		// Wall-clock goes to stderr: stdout stays byte-identical across
		// -workers settings (the determinism contract of the sweeps).
		log.Printf("%s regenerated in %v", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				log.Fatalf("%s: %v", id, err)
			}
		}
		if *mdPath != "" {
			md.WriteString(rep.RenderMarkdown())
			md.WriteString("\n")
		}
	}
	if *timing {
		rep := experiments.StageTimings()
		fmt.Println(rep.Render())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				log.Fatalf("%s: %v", rep.ID, err)
			}
		}
		if *mdPath != "" {
			md.WriteString(rep.RenderMarkdown())
			md.WriteString("\n")
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *mdPath)
	}
}

func writeCSVs(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tab := range rep.Tables {
		path := filepath.Join(dir, tab.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tab.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
