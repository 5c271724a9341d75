// Command perfbench is the repository benchmark. One run sets up one
// workload, computes every op's expected result with an independent
// oracle, drives the program's public entry points from closed-loop
// clients for a fixed time, and prints the metrics BENCHMARK.json names
// as one JSON object on the last line of standard output:
//
//	--trace 0  the end-to-end metrics, measured with tracing off;
//	--trace 1  the per-layer metrics. The run measures half its time
//	           untraced and half traced, so the tracing overhead is the
//	           difference, and writes the traced half's spans to
//	           .bench_build/perfbench/.
//
// An op whose result disagrees with its oracle counts as failed and
// makes the command exit 1. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated graphs and of the op order")
		seconds = flag.Int("seconds", 30, "measured time of the run")
		trace   = flag.Int("trace", 0, "1 measures and prints the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(config{
		workload:  w,
		seed:      *seed,
		duration:  time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		setupReps: 9,
		dir:       filepath.Join(".bench_build", "perfbench"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport writes the run's provenance and shape on one line and the
// result on the last.
func printReport(rep *report) error {
	info, err := json.Marshal(map[string]any{"provenance": rep.Provenance, "shape": rep.Shape})
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d failed, %d beyond p90\n",
		rep.Provenance.Workload, rep.Provenance.Seed, rep.Attempted, rep.Failed, rep.beyondP90)
	_, err = fmt.Printf("%s\n%s\n", info, last)
	return err
}
