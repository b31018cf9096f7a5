package harness

import (
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/stagger"
)

// ExploreConfig describes a schedule-exploration campaign: many runs of
// one experiment cell under an adversarial scheduler, each with a fresh
// scheduler seed, each recorded and checked by the serializability oracle.
type ExploreConfig struct {
	// Cell is the experiment cell every run executes. Cell.Seed fixes the
	// workload; only the schedule varies. Cell.Sched is the scheduler
	// specification ("" = "pct:3"; replay specs make no sense here and
	// are rejected). Each run overrides SchedSeed, Record and Oracle, and
	// a zero WatchdogTrace becomes 256: exploration keeps a deeper tail
	// than the htm default because adversarial schedules are exactly the
	// runs whose ends are worth reading.
	Cell RunConfig
	// Runs is the number of schedules to explore (0 = 100).
	Runs int

	// Minimize shrinks each failing schedule to a short decision prefix by
	// delta debugging (re-running the cell per probe).
	Minimize bool
	// MinimizeBudget caps replay probes per failure (0 = 512).
	MinimizeBudget int

	// Progress, if non-nil, is called after every run.
	Progress func(run int, failed bool)

	// Ctx, if non-nil, bounds the campaign: cancellation abandons in-flight
	// runs at their next globally ordered events and aborts the campaign
	// with an error wrapping ctx's error (the service layer's job deadlines
	// and drain ride on this). Nil runs to completion, exactly as before.
	Ctx context.Context
}

// defaults fills the campaign defaults in place.
func (ec *ExploreConfig) defaults() {
	if ec.Cell.Sched == "" {
		ec.Cell.Sched = "pct:3"
	}
	if ec.Cell.Seed == 0 {
		ec.Cell.Seed = 42
	}
	if ec.Runs <= 0 {
		ec.Runs = 100
	}
}

// ExploreFailure is one failing schedule, with enough to reproduce it.
type ExploreFailure struct {
	// SchedSeed reproduces the schedule generatively (same Cell.Sched +
	// seed).
	SchedSeed int64
	// Err is the oracle violation or workload verification failure.
	Err error
	// Picks is the recorded decision sequence (replays the failure).
	Picks []uint32
	// Minimized is the shortest failing prefix found (nil if minimization
	// was off or the failure stopped reproducing under replay).
	Minimized []uint32
	// Probes is how many replay runs minimization spent.
	Probes int
}

// Trace packages the failure as a writable trace for `-sched=replay:`.
func (f *ExploreFailure) Trace(ec ExploreConfig) *sched.Trace {
	ec.defaults()
	rc := ec.Cell
	rc.SchedSeed = f.SchedSeed
	if f.Minimized != nil {
		return NewTrace(rc, f.Minimized)
	}
	return NewTrace(rc, f.Picks)
}

// NewTrace packages a run of rc and its recorded scheduler decisions as a
// replayable trace. The scheduler seed defaults to the workload seed, as
// in Run.
func NewTrace(rc RunConfig, picks []uint32) *sched.Trace {
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	if rc.SchedSeed == 0 {
		rc.SchedSeed = rc.Seed
	}
	spec, _ := sched.Parse(rc.Sched)
	return &sched.Trace{
		Version:  sched.TraceVersion,
		Spec:     rc.Sched,
		Seed:     rc.SchedSeed,
		Bench:    rc.Benchmark,
		Mode:     rc.Mode.String(),
		Backend:  rc.Backend,
		Capacity: rc.Capacity,
		Threads:  rc.Threads,
		WlSeed:   rc.Seed,
		Ops:      rc.TotalOps,
		Window:   spec.Window,
		Picks:    picks,
	}
}

// TraceConfig reads a trace back into the cell it recorded, set to replay
// the recorded decisions under the recorded window.
func TraceConfig(t *sched.Trace) (RunConfig, error) {
	m, err := stagger.ParseMode(t.Mode)
	if err != nil {
		return RunConfig{}, fmt.Errorf("harness: trace header: %w", err)
	}
	spec, err := sched.Parse(t.Spec)
	if err != nil {
		return RunConfig{}, fmt.Errorf("harness: trace header: %w", err)
	}
	if t.Window != 0 {
		spec.Window = t.Window
	}
	picks := t.Picks
	if picks == nil {
		picks = []uint32{} // an empty trace still replays, never regenerates
	}
	return RunConfig{
		Benchmark:   t.Bench,
		Mode:        m,
		Backend:     t.Backend,
		Capacity:    t.Capacity,
		Threads:     t.Threads,
		Seed:        t.WlSeed,
		TotalOps:    t.Ops,
		Sched:       spec.String(),
		SchedSeed:   t.Seed,
		ReplayPicks: picks,
	}, nil
}

// ExploreReport aggregates one campaign.
type ExploreReport struct {
	Config   ExploreConfig // as run, with the campaign defaults filled in
	Runs     int
	Commits  int // oracle-validated commits across all runs
	Failures []ExploreFailure
}

// Explore runs a schedule-exploration campaign. Infrastructure errors
// (unknown benchmark, watchdog timeout) abort the campaign; serializability
// violations and workload verification failures are collected as findings.
func Explore(ec ExploreConfig) (*ExploreReport, error) {
	ec.defaults()
	spec, err := sched.Parse(ec.Cell.Sched)
	if err != nil {
		return nil, err
	}
	if spec.Kind == "replay" {
		return nil, fmt.Errorf("harness: explore needs a generative scheduler, not %q", ec.Cell.Sched)
	}

	// Every explored schedule is an independent cell (distinct scheduler
	// seed, same workload), so the campaign fans out across the package
	// worker default. Results fold into the report strictly in run order —
	// counts, failure list, minimization, and Progress callbacks are
	// indistinguishable from a sequential campaign.
	cfgs := make([]RunConfig, ec.Runs)
	for i := range cfgs {
		// Distinct, nonzero scheduler seeds; the workload seed stays fixed
		// so every run explores the same program.
		rc := ec.Cell
		rc.SchedSeed = ec.Cell.Seed + int64(i)*1_000_003 + 1
		rc.Record = true
		rc.Oracle = true
		if rc.WatchdogTrace == 0 {
			rc.WatchdogTrace = 256
		}
		cfgs[i] = rc
	}
	ctx := ec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &ExploreReport{Config: ec}
	err = runAllOrdered(ctx, cfgs, Workers(), func(i int, o RunOutcome) error {
		ss := cfgs[i].SchedSeed
		if o.Err != nil {
			return fmt.Errorf("harness: explore run %d (sched seed %d): %w", i, ss, o.Err)
		}
		res := o.Res
		rep.Runs++
		rep.Commits += res.OracleCommits
		ferr := res.OracleErr
		if ferr == nil {
			ferr = res.VerifyErr
		}
		if ferr != nil {
			f := ExploreFailure{SchedSeed: ss, Err: ferr, Picks: res.SchedPicks}
			if ec.Minimize {
				// Minimization probes run here, on the delivering goroutine,
				// so they serialize in run order like the sequential loop.
				f.Minimized, f.Probes = minimizeFailure(cfgs[i], f.Picks, ec.MinimizeBudget)
			}
			rep.Failures = append(rep.Failures, f)
		}
		if ec.Progress != nil {
			ec.Progress(i, ferr != nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// minimizeFailure delta-debugs a failing decision sequence: a candidate
// subsequence "fails" if replaying it (falling back to the deterministic
// rule once exhausted) still produces an oracle or verification failure.
func minimizeFailure(rc RunConfig, picks []uint32, budget int) ([]uint32, int) {
	if budget <= 0 {
		budget = 512
	}
	probe := rc
	probe.Record = false
	probes := 0
	fail := func(p []uint32) bool {
		probes++
		if p == nil {
			p = []uint32{}
		}
		probe.ReplayPicks = p
		res, err := Run(probe)
		if err != nil {
			return false // infra error: treat the candidate as passing
		}
		return res.OracleErr != nil || res.VerifyErr != nil
	}
	// The full sequence must reproduce under replay at all, or there is
	// nothing sound to minimize.
	if !fail(picks) {
		return nil, probes
	}
	return sched.Minimize(picks, fail, budget), probes
}
