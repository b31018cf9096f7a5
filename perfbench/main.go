// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output, and prints its metrics as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics and the tracing overhead,
// and writes its spans and CPU split under -out. perfbench/run.sh builds
// and runs it from a checkout:
//
//	bash perfbench/run.sh --workload contended-t16 --seed 42 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/anchor"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/workloads"
)

// heldOutSeed is the workload seed kept for checking claims: never tune
// the benchmark or a change against it.
const heldOutSeed = 9173

// paperReported holds the paper's own values of the claim metrics, the
// only reference they have: the simulator is not validated against
// hardware.
var paperReported = map[string]float64{
	"harness.hmean_improvement_pct": 24,
	"harness.abort_reduction_pct":   64,
	"harness.wasted_savings_pct":    43,
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 21

// workload is one benchmark workload.
type workload interface {
	// setup performs one repetition of the set-up and returns the part
	// of it that counts as set-up time.
	setup() (time.Duration, error)
	// pass runs the workload's fixed work once. A nil tracer means an
	// untraced pass.
	pass(t *tracer) (passResult, error)
	// layers measures the per-layer metrics after the traced passes,
	// using dir for scratch files, and returns the CPU self time by
	// function of the re-created RunChecked calls.
	layers(t *tracer, dir string, vals map[string]float64) (map[string]int64, error)
}

// passResult is one pass of a workload's fixed work.
type passResult struct {
	wall    time.Duration
	events  uint64    // simulated memory events
	samples []float64 // host ns per simulated event, one per cell, job or pass
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // smallest workload sizes; only the package test sets it
	out      string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: paper, contended-t16 or service")
	flag.Int64Var(&o.seed, "seed", 42, fmt.Sprintf("workload seed (%d is held out for checking claims)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for work files and trace output")
	flag.Parse()
	o.trace = traceFlag == 1

	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(o options, work string, out *outcome) (workload, error) {
	switch o.workload {
	case "paper":
		return newPaper(o.seed, out), nil
	case "contended-t16":
		return newContended(o.seed, o.tiny, out), nil
	case "service":
		return newService(o.seed, o.tiny, filepath.Join(work, "service"), out), nil
	}
	return nil, fmt.Errorf("unknown workload %q (paper, contended-t16, service)", o.workload)
}

func run(o options) (*result, error) {
	work := filepath.Join(o.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	out := &outcome{}
	w, err := newWorkload(o, work, out)
	if err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // keep collection owed by earlier work out of the repetition
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2
	}
	gc0, cpu0 := gcCPU()
	passes, err := measure(w, nil, measured)
	if err != nil {
		return nil, err
	}
	gc1, cpu1 := gcCPU()

	vals := map[string]float64{}
	defs := endToEnd
	if !o.trace {
		endToEndMetrics(passes, setups, vals)
	} else {
		defs = perLayer
		t := newTracer()
		traced, err := measure(w, t, measured/2)
		if err != nil {
			return nil, err
		}
		base, with := median(walls(passes)), median(walls(traced))
		vals["trace.overhead_s"] = with - base
		vals["trace.overhead_frac"] = (with - base) / base
		vals["runtime.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)
		fns, err := w.layers(t, filepath.Join(work, "layers"), vals)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if err := writeTrace(filepath.Join(o.out, "trace"), name, t, fns); err != nil {
			return nil, err
		}
	}
	ms, err := collect(defs, vals)
	if err != nil {
		return nil, err
	}
	report(o, defs, ms, passes, out)
	return &result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: ms}, nil
}

// measure runs passes until d has elapsed, and at least one.
func measure(w workload, t *tracer, d time.Duration) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < d {
		p, err := w.pass(t)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func walls(passes []passResult) []float64 {
	var ws []float64
	for _, p := range passes {
		ws = append(ws, p.wall.Seconds())
	}
	return ws
}

// endToEndMetrics takes medians over passes, so that a burst of host
// slowness during one pass does not set a run's figure.
func endToEndMetrics(passes []passResult, setups []float64, vals map[string]float64) {
	var samples, rates []float64
	for _, p := range passes {
		samples = append(samples, p.samples...)
		rates = append(rates, float64(p.events)/p.wall.Seconds())
	}
	vals["wall_s"] = median(walls(passes))
	vals["setup_s"] = median(setups)
	vals["sim_events_per_s"] = median(rates)
	vals["event_ns_p50"] = median(samples)
	vals["event_ns_p90"], _ = tail(samples)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		vals["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// report prints every metric with its unit and better direction, and
// the run's failures, to standard error.
func report(o options, defs []metricDef, ms map[string]metricValue, passes []passResult, out *outcome) {
	var samples []float64
	for _, p := range passes {
		samples = append(samples, p.samples...)
	}
	_, q := tail(samples)
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d trace %v: %d passes, %d event_ns samples (event_ns_p90 is their %.3g quantile), %d/%d units failed\n",
		o.workload, o.seed, o.trace, len(passes), len(samples), q, out.failed, out.attempted)
	names := make([]string, 0, len(defs))
	better := map[string]string{}
	for _, d := range defs {
		names = append(names, d.name)
		better[d.name] = d.better
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %-12s (%s is better)", n, ms[n].Value, ms[n].Unit, better[n])
		if v, ok := paperReported[n]; ok {
			fmt.Fprintf(os.Stderr, "  paper reports %g", v)
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "  FAILED:", p)
	}
}

// prepare builds and compiles the workload of every cell, the static
// part of each cell's set-up, so a broken input fails before any timing
// starts.
func prepare(cells []harness.RunConfig) error {
	for _, rc := range cells {
		w, err := workloads.Get(rc.Benchmark)
		if err != nil {
			return err
		}
		opts := anchor.DefaultOptions()
		opts.PCBits = htm.DefaultConfig().PCTagBits
		anchor.Compile(w.Mod, opts)
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
