package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/anchor"
	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// span is one traced call: the layer entry point it wraps, when it ran
// (ns since the tracer started), the span that caused it (0 = none),
// and the run it belongs to (one cell, job or generator call).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// meanOf is the mean length of the finished spans called name, in unit.
func (t *tracer) meanOf(name string, unit time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	return ratio(float64(sum)/float64(unit), float64(n))
}

// cellTrace is what a traced re-creation of one harness.Run yields.
type cellTrace struct {
	mode      stagger.Mode // effective mode after backend resolution
	stats     htm.Stats
	metrics   stagger.Metrics // zero for software backends
	verifyErr error
	runNS     int64  // host time inside RunChecked
	mallocs   uint64 // heap allocations inside RunChecked

	staticAccesses, staticAnchors int
}

// runCheckedLabel marks the CPU profile samples taken inside
// (*htm.Machine).RunChecked; the profile split keeps only those.
const runCheckedLabel = "htm.RunChecked"

// tracedRun re-creates harness.Run's call sequence for one cell (no
// oracle, scheduler, chaos or watchdog, as every benchmark cell is)
// with a span around each layer's entry point. Its simulated outcome
// must equal the untraced harness.Run of the same cell; callers check.
func tracedRun(t *tracer, parent int, run string, rc harness.RunConfig) (*cellTrace, error) {
	do := func(name string, f func()) {
		id := t.begin(name, run, parent)
		f()
		t.end(id)
	}
	var w *workloads.Workload
	var err error
	if do("workloads.Get", func() { w, err = workloads.Get(rc.Benchmark) }); err != nil {
		return nil, err
	}
	ops := rc.TotalOps
	if ops == 0 {
		ops = w.TotalOps
	}
	if rc.Seed == 0 {
		rc.Seed = 42 // harness.Run's default
	}
	mode := rc.Mode
	var bk backend.Info
	if rc.Backend != "" {
		if do("backend.Get", func() { bk, err = backend.Get(rc.Backend) }); err != nil {
			return nil, err
		}
		if bk.Software {
			mode = stagger.ModeHTM
		} else {
			mode = stagger.ResolveMode(rc.Backend, mode)
		}
	}
	mcfg := htm.DefaultConfig()
	mcfg.HardwareCPC = mode == stagger.ModeStaggeredHW
	mcfg.Lazy = rc.Lazy
	mcfg.Seed = rc.Seed
	if bk.PrepareMachine != nil {
		bk.PrepareMachine(&mcfg, backend.Options{Capacity: rc.Capacity})
	}
	aopts := anchor.DefaultOptions()
	aopts.PCBits = mcfg.PCTagBits
	aopts.Naive = rc.Naive
	var comp *anchor.Compiled
	do("anchor.Compile", func() { comp = anchor.Compile(w.Mod, aopts) })
	var mach *htm.Machine
	do("htm.New", func() { mach = htm.New(mcfg) })

	scfg := stagger.DefaultConfig(mode)
	var brt backend.Runtime
	var rt *stagger.Runtime
	if rc.Backend != "" {
		do("backend.New", func() {
			brt, err = bk.New(mach, comp, backend.Options{Capacity: rc.Capacity, StaggerConfig: scfg})
		})
		if err != nil {
			return nil, err
		}
		if u, ok := brt.(interface{ Unwrap() *stagger.Runtime }); ok {
			rt = u.Unwrap()
		}
	} else {
		do("backend.New", func() { rt = stagger.New(mach, comp, scfg); brt = rt.Backend() })
	}
	do("workloads.Setup", func() { w.Setup(mach, rc.Seed) })
	bodies := make([]func(*htm.Core), rc.Threads)
	do("workloads.Body", func() {
		for tid := range bodies {
			bodies[tid] = w.Body(brt, tid, rc.Threads, splitOps(ops, rc.Threads, tid), rc.Seed)
		}
	})

	ct := &cellTrace{mode: mode, staticAccesses: comp.StaticAccesses, staticAnchors: comp.StaticAnchors}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	id := t.begin(runCheckedLabel, run, parent)
	pprof.Do(context.Background(), pprof.Labels("span", runCheckedLabel), func(context.Context) {
		err = mach.RunChecked(bodies)
	})
	t.end(id)
	ct.runNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", run, err)
	}
	ct.mallocs = ms1.Mallocs - ms0.Mallocs
	ct.stats = mach.Stats()
	if rt != nil {
		ct.metrics = rt.Metrics
	}
	do("workloads.Verify", func() { ct.verifyErr = w.Verify(mach, rc.Threads, ops) })
	return ct, nil
}

// splitOps divides total operations over threads as the harness does.
func splitOps(total, threads, tid int) int {
	n := total / threads
	if tid < total%threads {
		n++
	}
	return n
}

// cpuProfile records a CPU profile from start until stop.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	// A 1 kHz rate instead of pprof's fixed 100 Hz gives the short
	// t1 cells enough samples. Setting the rate first makes
	// StartCPUProfile keep it (the runtime prints a one-line notice);
	// the split below uses sample shares, so the period does not matter.
	runtime.SetCPUProfileRate(1000)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its samples taken inside RunChecked.
func (p *cpuProfile) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	return labelledSamples(p.buf.Bytes(), "span", runCheckedLabel)
}

// selfByFunc sums sample time by innermost function: each function's
// self time.
func selfByFunc(samples []cpuSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[s.stack[0]] += s.ns
	}
	return out
}

// cpuShares turns the RunChecked samples into the per-layer shares of
// self time.
func cpuShares(samples []cpuSample, vals map[string]float64) {
	var total, handoff int64
	byPkg := map[string]int64{}
	for _, s := range samples {
		total += s.ns
		byPkg[pkgOf(s.stack[0])] += s.ns
		if isHandoff(s.stack) {
			handoff += s.ns
		}
	}
	share := func(pkgs ...string) float64 {
		var s int64
		for _, p := range pkgs {
			s += byPkg["repro/internal/"+p]
		}
		return ratio(float64(s), float64(total))
	}
	vals["workloads.self_share"] = share("workloads", "prog", "simds")
	vals["htm.self_share"] = share("htm", "mem")
	vals["stagger.self_share"] = share("stagger")
	vals["occ.self_share"] = share("backend/occ")
	vals["htm.handoff_share"] = ratio(float64(handoff), float64(total))
}

// isHandoff reports whether a sample is engine handoff work: self time
// in the cooperative engine's scheduling methods, in iter.Pull's next
// and yield, or anywhere under a runtime coroutine switch.
func isHandoff(stack []string) bool {
	leaf := stack[0]
	for _, m := range []string{"grant", "next", "sync", "dispatch", "min", "keepsToken"} {
		if leaf == "repro/internal/htm.(*coopEngine)."+m {
			return true
		}
	}
	if strings.HasPrefix(leaf, "iter.Pull") && (strings.HasSuffix(leaf, ".func2") || strings.HasSuffix(leaf, ".func1.1")) {
		return true
	}
	for _, fn := range stack {
		if fn == "runtime.coroswitch" {
			return true
		}
	}
	return false
}

// writeTrace saves the spans and the CPU split of a traced run.
func writeTrace(dir, base string, t *tracer, fns map[string]int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type fnTime struct {
		Func    string `json:"func"`
		Package string `json:"package"`
		SelfNS  int64  `json:"self_ns"`
	}
	split := make([]fnTime, 0, len(fns))
	for fn, ns := range fns {
		split = append(split, fnTime{fn, pkgOf(fn), ns})
	}
	sort.Slice(split, func(i, j int) bool {
		if split[i].SelfNS != split[j].SelfNS {
			return split[i].SelfNS > split[j].SelfNS
		}
		return split[i].Func < split[j].Func
	})
	for name, v := range map[string]any{"spans": t.spans, "cpu": split} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, base+"."+name+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
