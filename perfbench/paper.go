package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// paperBench is the `paper` workload: the full evaluation `cmd/paper`
// prints (Tables 1-4, Figures 7-8, headline claims) from a cold memo
// cache with nproc sweep workers, once per pass.
type paperBench struct {
	seed   int64
	cells  []harness.RunConfig // every distinct cell the evaluation runs
	golden string              // the first pass's output; later ones must match
	claims *harness.ClaimsSummary
	out    *outcome
}

func newPaper(seed int64, out *outcome) *paperBench {
	var cells []harness.RunConfig
	add := func(b string, m stagger.Mode, threads int) {
		cells = append(cells, harness.RunConfig{Benchmark: b, Mode: m, Threads: threads, Seed: seed})
	}
	for _, b := range workloads.Names() {
		add(b, stagger.ModeHTM, 1)
		if b != "list-lo" { // Table 3 has one list row, list-hi
			add(b, stagger.ModeStaggeredHW, 1)
		}
		for _, m := range []stagger.Mode{stagger.ModeHTM, stagger.ModeAddrOnly, stagger.ModeStaggeredSW, stagger.ModeStaggeredHW} {
			add(b, m, harness.PaperThreads)
		}
	}
	return &paperBench{seed: seed, cells: cells, out: out}
}

func (p *paperBench) setup() (time.Duration, error) {
	start := time.Now()
	harness.SetWorkers(runtime.NumCPU())
	err := prepare(p.cells)
	return time.Since(start), err
}

func (p *paperBench) pass(t *tracer) (passResult, error) {
	harness.ClearCache()
	start := time.Now()
	text, claims, err := renderPaper(p.seed, t)
	wall := time.Since(start)
	if err == nil && p.golden != "" && text != p.golden {
		err = fmt.Errorf("paper: rendered evaluation differs from the first pass")
	}
	p.out.unit(err)
	if p.golden == "" {
		p.golden, p.claims = text, claims
	}
	// The generators left every cell in the memo cache; read them back.
	var events uint64
	for _, rc := range p.cells {
		r, err := harness.RunCached(rc)
		if err = verified(rc, r, err); err == nil {
			events += simEvents(&r.Stats)
		}
		p.out.unit(err)
	}
	return passResult{wall: wall, events: events,
		samples: []float64{float64(wall.Nanoseconds()) / float64(max(events, 1))}}, nil
}

// renderPaper produces exactly what `go run ./cmd/paper` prints, with a
// span around each generator call.
func renderPaper(seed int64, t *tracer) (string, *harness.ClaimsSummary, error) {
	var b strings.Builder
	var claims *harness.ClaimsSummary
	gen := func(name string, f func() (string, error)) error {
		id := t.begin("harness."+name, "paper", 0)
		s, err := f()
		t.end(id)
		if err != nil {
			return fmt.Errorf("paper: %s: %w", name, err)
		}
		b.WriteString(s + "\n")
		return nil
	}
	steps := []struct {
		name string
		f    func() (string, error)
	}{
		{"Table1", func() (string, error) { r, err := harness.Table1(seed); return harness.FormatTable1(r), err }},
		{"Table2", func() (string, error) { return harness.Table2(), nil }},
		{"Table3", func() (string, error) { r, err := harness.Table3(seed); return harness.FormatTable3(r), err }},
		{"Table4", func() (string, error) { r, err := harness.Table4(seed); return harness.FormatTable4(r), err }},
		{"Figure7", func() (string, error) { r, err := harness.Figure7(seed); return harness.FormatFigure7(r), err }},
		{"Figure8", func() (string, error) { r, err := harness.Figure8(seed); return harness.FormatFigure8(r), err }},
		{"Claims", func() (string, error) {
			cs, err := harness.Claims(seed)
			if err != nil {
				return "", err
			}
			claims = cs
			return harness.FormatClaims(cs), nil
		}},
	}
	for _, s := range steps {
		if err := gen(s.name, s.f); err != nil {
			return "", nil, err
		}
	}
	return b.String(), claims, nil
}

// generatorLayers reports the harness generator timings of a traced
// paper pass and the headline claims it computed.
func generatorLayers(t *tracer, claims *harness.ClaimsSummary, vals map[string]float64) {
	for _, g := range []string{"Table1", "Table3", "Table4", "Figure7", "Figure8", "Claims"} {
		vals["harness."+strings.ToLower(g)+"_ms"] = t.meanOf("harness."+g, time.Millisecond)
	}
	vals["harness.hmean_improvement_pct"] = claims.HarmonicMeanImprovement * 100
	vals["harness.abort_reduction_pct"] = claims.MeanAbortReduction * 100
	vals["harness.wasted_savings_pct"] = claims.MeanWastedSavings * 100
}

func (p *paperBench) layers(t *tracer, dir string, vals map[string]float64) (map[string]int64, error) {
	generatorLayers(t, p.claims, vals)
	notReached(vals, "service.", "journal.")
	return cellLayers(t, p.out, p.cells, harness.RunCached, dir+"/store", vals)
}
