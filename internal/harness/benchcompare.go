package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BenchDelta is one benchmark compared against the committed baseline
// of a previous PR.
type BenchDelta struct {
	Name    string  // micro kernel name or engine/dataset/pattern key
	BaseNs  float64 // baseline ns/op
	CurNs   float64 // current ns/op
	Ratio   float64 // CurNs / BaseNs
	Regress bool    // beyond the tolerance
}

// ReadBenchReport parses a BENCH_PR<n>.json file.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	return &rep, nil
}

// ReadBenchReportFile parses the report at path.
func ReadBenchReportFile(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBenchReport(f)
}

func engineKey(r EngineBenchResult) string {
	return r.Engine + "/" + r.Dataset + "/" + r.Pattern
}

// CompareReports diffs cur's ns/op against base's, benchmark by
// benchmark, flagging every slowdown beyond tolerance (0.25 = warn
// when more than 25% slower). Benchmarks present on only one side are
// skipped — a new kernel has no baseline; a baseline row the fresh run
// lacks is reported by MissingRows. Deltas come back sorted
// worst-ratio first.
func CompareReports(base, cur *BenchReport, tolerance float64) []BenchDelta {
	var out []BenchDelta
	add := func(name string, baseNs, curNs float64) {
		if baseNs <= 0 || curNs <= 0 {
			return
		}
		ratio := curNs / baseNs
		out = append(out, BenchDelta{
			Name:    name,
			BaseNs:  baseNs,
			CurNs:   curNs,
			Ratio:   ratio,
			Regress: ratio > 1+tolerance,
		})
	}
	baseMicro := make(map[string]float64, len(base.Micro))
	for _, m := range base.Micro {
		baseMicro[m.Name] = m.NsOp
	}
	for _, m := range cur.Micro {
		if b, ok := baseMicro[m.Name]; ok {
			add("micro:"+m.Name, b, m.NsOp)
		}
	}
	baseEng := make(map[string]float64, len(base.Engines))
	for _, e := range base.Engines {
		baseEng[engineKey(e)] = e.NsOp
	}
	for _, e := range cur.Engines {
		if b, ok := baseEng[engineKey(e)]; ok {
			add(engineKey(e), b, e.NsOp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// MissingRows lists, sorted, the benchmarks base has and cur lacks,
// named as in CompareReports. A row the fresh run stopped producing
// would otherwise pass the comparison unnoticed.
func MissingRows(base, cur *BenchReport) []string {
	have := make(map[string]bool, len(cur.Micro)+len(cur.Engines))
	for _, m := range cur.Micro {
		have["micro:"+m.Name] = true
	}
	for _, e := range cur.Engines {
		have[engineKey(e)] = true
	}
	var out []string
	for _, m := range base.Micro {
		if !have["micro:"+m.Name] {
			out = append(out, "micro:"+m.Name)
		}
	}
	for _, e := range base.Engines {
		if !have[engineKey(e)] {
			out = append(out, engineKey(e))
		}
	}
	sort.Strings(out)
	return out
}

// Regressions filters the deltas beyond tolerance.
func Regressions(deltas []BenchDelta) []BenchDelta {
	var out []BenchDelta
	for _, d := range deltas {
		if d.Regress {
			out = append(out, d)
		}
	}
	return out
}
