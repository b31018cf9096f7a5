package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps the program's metric tables
// and BENCHMARK.json in step, and checks names, units and limits.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, i int, n, u, b string) {
		if i >= len(defs) {
			t.Errorf("%s metric %s is not in the program's table", kind, n)
			return
		}
		if d := defs[i]; d.name != n || d.unit != u || d.better != b {
			t.Errorf("%s metric %d: BENCHMARK.json has %s %s %s, the program %s %s %s", kind, i, n, u, b, d.name, d.unit, d.better)
		}
		if !name.MatchString(n) || !unit.MatchString(u) || (b != "lower" && b != "higher") || seen[n] {
			t.Errorf("%s metric %q (unit %q, better %q) is malformed or repeated", kind, n, u, b)
		}
		seen[n] = true
	}
	for i, m := range bf.EndToEnd {
		check("end-to-end", endToEnd, i, m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check("per-layer", perLayer, i, m.Name, m.Unit, m.Better)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at the
// smallest size and checks the result line: every listed metric with
// its unit, all outputs correct, and at seed 42 the headline claims
// `go run ./cmd/paper` prints.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper evaluation several times")
	}
	bf := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				res, err := run(options{workload: w.Name, seed: 42, seconds: 0.01, trace: trace, tiny: true, out: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var line map[string]json.RawMessage
				b, _ := json.Marshal(res)
				if err := json.Unmarshal(b, &line); err != nil || len(line) != 4 {
					t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", b)
				}
				want := len(bf.EndToEnd)
				if trace {
					want = len(bf.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), want)
				}
				for n, m := range res.Metrics {
					if units[n] != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json %q", n, m.Unit, units[n])
					}
				}
				if w.Name == "paper" && trace {
					for n, v := range map[string]string{
						"harness.hmean_improvement_pct": "10.9",
						"harness.abort_reduction_pct":   "39.2",
						"harness.wasted_savings_pct":    "31.6",
					} {
						if got := fmt.Sprintf("%.1f", res.Metrics[n].Value); got != v {
							t.Errorf("%s = %s at seed 42, cmd/paper prints %s", n, got, v)
						}
					}
				}
			})
		}
	}
}
