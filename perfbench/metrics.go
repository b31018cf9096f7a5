package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload emits all
// of them on an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"event_ns_p50", "ns", "lower"},
	{"event_ns_p90", "ns", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what the traced run reports, named by module. Every
// workload emits all of them; README.md says which workload each one
// is meant to be read on.
var perLayer = []metricDef{
	{"workloads.build_us", "us", "lower"},
	{"workloads.seed_us", "us", "lower"},
	{"workloads.verify_us", "us", "lower"},
	{"workloads.self_share", "fraction", "lower"},
	{"anchor.compile_us", "us", "lower"},
	{"anchor.instrumented_frac", "fraction", "lower"},
	{"htm.machine_us", "us", "lower"},
	{"htm.run_ms", "ms", "lower"},
	{"htm.ns_per_event", "ns", "lower"},
	{"htm.allocs_per_event", "allocs/event", "lower"},
	{"htm.handoff_share", "fraction", "lower"},
	{"htm.self_share", "fraction", "lower"},
	{"htm.commit_frac", "fraction", "higher"},
	{"htm.wasted_over_useful", "ratio", "lower"},
	{"htm.irrevocable_frac", "fraction", "lower"},
	{"htm.l1_hit_frac", "fraction", "higher"},
	{"htm.aborts_per_commit", "ratio", "lower"},
	{"stagger.self_share", "fraction", "lower"},
	{"stagger.locks_acquired", "count", "lower"},
	{"stagger.lock_wait_frac", "fraction", "lower"},
	{"stagger.lock_hold_cycles", "cycles", "lower"},
	{"stagger.contended_commit_frac", "fraction", "lower"},
	{"stagger.alp_visits_per_commit", "count", "lower"},
	{"stagger.accuracy", "fraction", "higher"},
	{"occ.self_share", "fraction", "lower"},
	{"occ.commit_frac", "fraction", "higher"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"harness.table1_ms", "ms", "lower"},
	{"harness.table3_ms", "ms", "lower"},
	{"harness.table4_ms", "ms", "lower"},
	{"harness.figure7_ms", "ms", "lower"},
	{"harness.figure8_ms", "ms", "lower"},
	{"harness.claims_ms", "ms", "lower"},
	{"harness.hmean_improvement_pct", "%", "higher"},
	{"harness.abort_reduction_pct", "%", "higher"},
	{"harness.wasted_savings_pct", "%", "higher"},
	{"obs.snapshot_us", "us", "lower"},
	{"service.submit_us", "us", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.from_store_frac", "fraction", "higher"},
	{"service.fresh_job_ms_p50", "ms", "lower"},
	{"service.fresh_job_ms_p90", "ms", "lower"},
	{"service.stored_job_ms_p50", "ms", "lower"},
	{"service.jobs_per_s", "1/s", "higher"},
	{"store.open_ms", "ms", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"journal.open_ms", "ms", "lower"},
	{"journal.appends_per_job", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// notReached reports as 0 the per-layer metrics of the modules (name
// prefixes) that a workload's own traffic does not reach.
func notReached(vals map[string]float64, modules ...string) {
	for _, d := range perLayer {
		for _, m := range modules {
			if strings.HasPrefix(d.name, m) {
				vals[d.name] = 0
			}
		}
	}
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the result's metrics object,
// failing if any listed metric was not measured or is not finite.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tail is what event_ns_p90 reports of xs: the nearest-rank 90th
// percentile, or the highest rank below it that leaves at least 10
// samples beyond it; with fewer than 20 samples, the median. It also
// returns the quantile it took.
func tail(xs []float64) (v, q float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 0.5
	}
	r := min((9*n+9)/10, n-10) // 1-based rank
	return sorted(xs)[r-1], float64(r) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
