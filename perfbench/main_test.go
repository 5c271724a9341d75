package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyRun(t *testing.T, w *workload, trace, corrupt bool) *report {
	t.Helper()
	rep, err := run(config{
		workload: w, seed: 3, duration: 300 * time.Millisecond, trace: trace,
		setupReps: 2, dir: t.TempDir(), tiny: true, corruptOracle: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

// TestTinyRunsPrintEveryMetric runs every workload of BENCHMARK.json at
// tiny sizes, untraced and traced, and checks that each run is correct
// and prints exactly the metrics BENCHMARK.json names, with their units.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		w := findWorkload(bw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", bw.Name)
		}
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w, trace, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			var last map[string]json.RawMessage
			raw, _ := json.Marshal(rep)
			if err := json.Unmarshal(raw, &last); err != nil || len(last) != 4 {
				t.Errorf("%s: result line %s does not have exactly four keys", w.name, raw)
			}
		}
	}
}

// TestCorruptOracleFails checks that an op disagreeing with its oracle
// makes the run incorrect, on every workload.
func TestCorruptOracleFails(t *testing.T) {
	for _, w := range workloads {
		if rep := tinyRun(t, w, false, true); rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted oracle still gave correct=%v failed=%d", w.name, rep.Correct, rep.Failed)
		}
	}
}

// TestConnectedPatterns checks the census oracle's pattern classes
// against the known counts of connected graphs on k vertices, and that
// every class key decodes back to its own class.
func TestConnectedPatterns(t *testing.T) {
	for k, want := range map[int]int{2: 1, 3: 2, 4: 6, 5: 21} {
		ps := connectedPatterns(k)
		if len(ps) != want {
			t.Errorf("k=%d: %d classes, want %d", k, len(ps), want)
		}
		for _, p := range ps {
			q, err := decodeKey(p.CanonicalKey())
			if err != nil || q.CanonicalKey() != p.CanonicalKey() {
				t.Errorf("k=%d: key %s decodes to %v (%v)", k, p.CanonicalKey(), q, err)
			}
		}
	}
}
