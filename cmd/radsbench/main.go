// Command radsbench regenerates any table or figure of the paper's
// evaluation from the synthetic dataset analogs.
//
// Usage:
//
//	radsbench -exp table1                 # dataset profiles
//	radsbench -exp fig9 -machines 10      # DBLP time+comm comparison
//	radsbench -exp fig12 -dataset RoadNet # scalability ratios
//	radsbench -exp all                    # everything, in paper order
//
// Experiments: table1, table2, fig8, fig9, fig10, fig11, fig12, fig13,
// table3, table4, fig15, robust, ablations, all. Outside the paper set,
// -exp gallopsweep prints the merge-vs-gallop crossover table that pins
// graph.gallopRatioU32 (record reruns in BENCH_NOTES.md).
//
// With -json FILE, radsbench instead writes a machine-readable
// performance snapshot (kernel micro-benchmarks plus one end-to-end
// run per engine: ns/op, allocs/op, embeddings/sec, tree-nodes/sec)
// to FILE — the repository's perf trajectory, e.g. BENCH_PR3.json:
//
//	radsbench -json BENCH_PR3.json -machines 4
//
// With -registry DIR, -dataset also resolves real ingested graphs by
// their registry name (see cmd/radsprep), and -exp count runs every
// registered engine on one pattern over that dataset and fails unless
// all counts match the single-machine oracle — the CI dataset smoke:
//
//	radsbench -exp count -registry datasets -dataset karate -pattern triangle
package main

import (
	"flag"
	"fmt"
	"os"

	"rads/internal/harness"
	"rads/internal/pattern"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 table3 table4 fig15 robust ablations count gallopsweep all)")
		machines  = flag.Int("machines", 10, "number of simulated machines")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		dataset   = flag.String("dataset", "", "dataset override for fig12/robust/ablations (built-in analogs) and the dataset for -exp count (analog or -registry name)")
		registry  = flag.String("registry", "", "dataset registry directory for -exp count: resolves -dataset to an ingested .radsgraph by name")
		patName   = flag.String("pattern", "triangle", "query pattern for -exp count (built-in name or name:n:u-v,...)")
		budgetMB  = flag.Int64("budget-mb", 48, "per-machine memory budget in MiB for the comparison figures (0 = unlimited)")
		jsonOut   = flag.String("json", "", "write a machine-readable benchmark report to this file instead of running -exp")
		compare   = flag.String("compare", "", "diff a fresh run against this committed baseline (e.g. BENCH_PR3.json) instead of running -exp")
		tolerance = flag.Float64("tolerance", 0.30, "with -compare: warn when a benchmark is more than this fraction slower")
		strict    = flag.Bool("strict", false, "with -compare: exit nonzero on any regression beyond the tolerance or any baseline row missing from the fresh run")
	)
	flag.Parse()
	if *jsonOut != "" {
		if err := runJSON(*jsonOut, *machines, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "radsbench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare != "" {
		failed, err := runCompare(*compare, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "radsbench:", err)
			os.Exit(1)
		}
		if failed && *strict {
			os.Exit(2)
		}
		return
	}
	if *exp == "count" {
		if err := runCount(*dataset, *registry, *patName, *machines, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "radsbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *machines, *scale, *dataset, *budgetMB<<20); err != nil {
		fmt.Fprintln(os.Stderr, "radsbench:", err)
		os.Exit(1)
	}
}

// runCompare re-runs the JSON bench with the baseline's own shape
// (machine count, scale) and diffs ns/op against it — the perf
// trajectory check: BENCH_PR<n>.json is committed per perf PR and the
// next PR compares against it. It reports whether anything regressed
// beyond the tolerance or a baseline row is missing from the fresh run.
func runCompare(baselinePath string, tolerance float64) (bool, error) {
	base, err := harness.ReadBenchReportFile(baselinePath)
	if err != nil {
		return false, err
	}
	fmt.Printf("baseline %s: %d micro benchmarks, %d engine runs (machines=%d scale=%g)\n",
		baselinePath, len(base.Micro), len(base.Engines), base.Machines, base.Scale)
	cur, err := harness.BenchJSON(base.Machines, base.Scale)
	if err != nil {
		return false, err
	}
	deltas := harness.CompareReports(base, cur, tolerance)
	if len(deltas) == 0 {
		return false, fmt.Errorf("no comparable benchmarks between %s and this build", baselinePath)
	}
	fmt.Printf("%-52s %14s %14s %8s\n", "benchmark", "base ns/op", "now ns/op", "ratio")
	for _, d := range deltas {
		mark := ""
		if d.Regress {
			mark = "  <-- REGRESSION"
		}
		fmt.Printf("%-52s %14.0f %14.0f %7.2fx%s\n", d.Name, d.BaseNs, d.CurNs, d.Ratio, mark)
	}
	missing := harness.MissingRows(base, cur)
	for _, name := range missing {
		fmt.Printf("%-52s %14s\n", name, "MISSING")
	}
	reg := harness.Regressions(deltas)
	if len(reg) > 0 {
		fmt.Printf("\nWARNING: %d benchmark(s) more than %.0f%% slower than %s\n",
			len(reg), tolerance*100, baselinePath)
		fmt.Println("(wall-clock benches are noisy; rerun on a quiet machine before reverting anything)")
	}
	if len(missing) > 0 {
		fmt.Printf("\nWARNING: %d baseline benchmark(s) of %s missing from this run\n", len(missing), baselinePath)
	}
	if len(reg) > 0 || len(missing) > 0 {
		return true, nil
	}
	fmt.Printf("\nOK: nothing slower than baseline by more than %.0f%%\n", tolerance*100)
	return false, nil
}

// runCount is the dataset smoke check: every registered engine must
// produce the oracle's count for one pattern on one dataset (built-in
// analog or registry-resolved .radsgraph). A mismatch is a nonzero
// exit — CI ingests a committed edge list with radsprep and runs this
// against the result.
func runCount(ds, registry, patName string, machines int, scale float64) error {
	if ds == "" {
		return fmt.Errorf("-exp count needs -dataset")
	}
	store, _, err := harness.LoadStore(ds, registry, scale)
	if err != nil {
		return err
	}
	p := pattern.ByName(patName)
	if p == nil {
		var perr error
		p, perr = pattern.Parse(patName)
		if perr != nil {
			return fmt.Errorf("pattern %q is neither a built-in name nor name:n:edges: %w", patName, perr)
		}
	}
	t, err := harness.CountParity(store, ds, p, machines)
	if t != nil {
		t.Fprint(os.Stdout)
	}
	return err
}

// runJSON writes the machine-readable benchmark report.
func runJSON(path string, machines int, scale float64) error {
	rep, err := harness.BenchJSON(machines, scale)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d micro benchmarks, %d engine runs)\n", path, len(rep.Micro), len(rep.Engines))
	return nil
}

func run(exp string, machines int, scale float64, dataset string, budget int64) error {
	out := os.Stdout
	perf := func(ds string) error {
		timeT, commT, _, err := harness.PerfComparison(harness.PerfSpec{
			Dataset: ds, Machines: machines, Scale: scale, BudgetBytes: budget,
		})
		if err != nil {
			return err
		}
		timeT.Fprint(out)
		commT.Fprint(out)
		return nil
	}
	figDataset := map[string]string{
		"fig8": "RoadNet", "fig9": "DBLP", "fig10": "LiveJournal", "fig11": "UK2002",
	}
	switch exp {
	case "table1":
		harness.Table1DatasetProfiles(scale).Fprint(out)
	case "table2":
		harness.Table2CrystalIndex(scale).Fprint(out)
	case "fig8", "fig9", "fig10", "fig11":
		return perf(figDataset[exp])
	case "fig12":
		ds := dataset
		if ds == "" {
			ds = "RoadNet"
		}
		t, err := harness.Scalability(harness.ScalabilitySpec{Dataset: ds, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "fig13":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, err := harness.PlanEffectiveness(harness.PlanSpec{Dataset: ds, Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "table3":
		t, err := harness.Compression(harness.CompressionSpec{Dataset: "RoadNet", Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "table4":
		t, err := harness.Compression(harness.CompressionSpec{Dataset: "DBLP", Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "fig15":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, _, err := harness.CliqueQueries(ds, machines, scale)
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "robust":
		ds := dataset
		if ds == "" {
			ds = "UK2002"
		}
		t, err := harness.Robustness(ds, machines, scale, budget/8, "q4")
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "ablations":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, err := harness.Ablations(ds, machines, scale, "q4")
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "gallopsweep":
		harness.GallopSweep().Fprint(out)
	case "all":
		for _, id := range []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11",
			"fig12", "fig13", "table3", "table4", "fig15", "robust", "ablations"} {
			if err := run(id, machines, scale, dataset, budget); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
