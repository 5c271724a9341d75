package harness

import (
	"reflect"
	"strings"
	"testing"
)

func TestCompareReportsFlagsRegressions(t *testing.T) {
	base := &BenchReport{
		Micro: []MicroResult{
			{Name: "merge", NsOp: 100},
			{Name: "gallop", NsOp: 50},
			{Name: "gone", NsOp: 10},
		},
		Engines: []EngineBenchResult{
			{Engine: "RADS", Dataset: "DBLP", Pattern: "q1", NsOp: 1000},
			{Engine: "SEED", Dataset: "DBLP", Pattern: "q1", NsOp: 2000},
		},
	}
	cur := &BenchReport{
		Micro: []MicroResult{
			{Name: "merge", NsOp: 90},  // faster: fine
			{Name: "gallop", NsOp: 80}, // 1.6x: regression
			{Name: "fresh", NsOp: 1},   // no baseline: skipped
		},
		Engines: []EngineBenchResult{
			{Engine: "RADS", Dataset: "DBLP", Pattern: "q1", NsOp: 1100}, // 1.1x: within tolerance
			{Engine: "SEED", Dataset: "DBLP", Pattern: "q1", NsOp: 9000}, // 4.5x: regression
		},
	}
	deltas := CompareReports(base, cur, 0.30)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4 (one per matched benchmark): %+v", len(deltas), deltas)
	}
	// Sorted worst first.
	if deltas[0].Name != "SEED/DBLP/q1" || !deltas[0].Regress {
		t.Errorf("worst delta = %+v, want SEED regression first", deltas[0])
	}
	reg := Regressions(deltas)
	if len(reg) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(reg), reg)
	}
	names := make([]string, len(reg))
	for i, d := range reg {
		names[i] = d.Name
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "micro:gallop") || !strings.Contains(joined, "SEED/DBLP/q1") {
		t.Errorf("regressions = %v", names)
	}
	for _, d := range deltas {
		if d.Name == "micro:fresh" || d.Name == "micro:gone" {
			t.Errorf("unmatched benchmark %s compared", d.Name)
		}
	}
}

// TestCompareReportsIgnoresProvenance: the gate diffs per-row ns/op
// only — reports stamped with different toolchain/host provenance
// still compare cleanly against older baselines.
func TestCompareReportsIgnoresProvenance(t *testing.T) {
	base := &BenchReport{
		GoVersion: "go1.21.0", GOOS: "darwin", GOARCH: "amd64", Host: "old-box",
		Micro: []MicroResult{{Name: "merge", NsOp: 100}},
	}
	cur := &BenchReport{
		GoVersion: "go1.22.5", GOOS: "linux", GOARCH: "arm64", Host: "new-box",
		Micro: []MicroResult{{Name: "merge", NsOp: 110}},
	}
	deltas := CompareReports(base, cur, 0.30)
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1: %+v", len(deltas), deltas)
	}
	if deltas[0].Regress {
		t.Errorf("provenance mismatch flagged as regression: %+v", deltas[0])
	}
}

// TestMissingRowsListsDroppedEngineRow: a baseline row the fresh run no
// longer produces is listed, not silently skipped; rows only the fresh
// run has are not.
func TestMissingRowsListsDroppedEngineRow(t *testing.T) {
	base := &BenchReport{
		Micro: []MicroResult{{Name: "merge", NsOp: 100}},
		Engines: []EngineBenchResult{
			{Engine: "RADS", Dataset: "DBLP", Pattern: "q1", NsOp: 1000},
			{Engine: "SEED", Dataset: "DBLP", Pattern: "q1", NsOp: 2000},
		},
	}
	cur := &BenchReport{
		Micro: []MicroResult{{Name: "merge", NsOp: 100}, {Name: "fresh", NsOp: 1}},
		Engines: []EngineBenchResult{
			{Engine: "SEED", Dataset: "DBLP", Pattern: "q1", NsOp: 2000},
		},
	}
	if got := MissingRows(base, cur); !reflect.DeepEqual(got, []string{"RADS/DBLP/q1"}) {
		t.Errorf("MissingRows = %v, want [RADS/DBLP/q1]", got)
	}
	if got := MissingRows(base, base); len(got) != 0 {
		t.Errorf("MissingRows of a report against itself = %v, want none", got)
	}
}
