package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type benchmarkSpec struct {
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

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs a workload on tiny tables from a scratch directory.
func tinyRun(t *testing.T, workload string, trace, corrupt bool) *report {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	rep, err := runBenchmark(config{workload: workload, seed: 3, seconds: 0.2, trace: trace,
		setups: 1, position: 400, employee: 200, corrupt: corrupt, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestEveryMetricPrinted runs every workload at tiny size, untraced
// and traced, and checks the printed metrics against BENCHMARK.json.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, w.Name, traced, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestCorruptedReferenceCaught proves the result check is not vacuous:
// with one reference altered, the run must report wrong results.
func TestCorruptedReferenceCaught(t *testing.T) {
	for _, w := range []string{"plan-small", "serving-mix"} {
		rep := tinyRun(t, w, false, true)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted reference not caught (correct=%v failed=%d)", w, rep.Correct, rep.Failed)
		}
	}
}
