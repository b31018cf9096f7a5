// Package harness runs the paper's experiments: one workload under one
// system configuration per Run call, and table/figure generators that
// sweep benchmarks and systems to regenerate every result in Section 6
// of the paper.
package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/anchor"
	"repro/internal/backend"
	_ "repro/internal/backend/occ" // register the software OCC backend
	"repro/internal/chaos"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// RunConfig selects a single experiment cell.
type RunConfig struct {
	// Benchmark is the workload name (see workloads.Names).
	Benchmark string
	// Mode is the system under test (HTM / AddrOnly / Staggered+SW /
	// Staggered).
	Mode stagger.Mode
	// Backend selects the concurrency-control backend by registry name
	// ("htm", "staggered", "limited", "occ"; see backend.Names). The
	// backend resolves Mode (e.g. "htm" forces the uninstrumented
	// baseline) before the machine is configured. Empty runs Mode through
	// the registry as "htm" for ModeHTM and "staggered" otherwise, which
	// leaves Mode unchanged; the field itself stays empty in
	// Result.Config, so cache and store keys keep their spelling.
	Backend string
	// Capacity is the speculative line-capacity knob for the "limited"
	// backend (0 = that backend's default); other backends ignore it.
	Capacity int
	// Threads is the worker count (1..cores).
	Threads int
	// Seed drives all workload randomness.
	Seed int64
	// TotalOps overrides the workload's default operation count (0 =
	// default).
	TotalOps int
	// Naive instruments every load/store instead of anchors only
	// (Section 6.1's overhead comparison).
	Naive bool
	// Lazy switches the machine to lazy (commit-time, committer-wins)
	// conflict detection — the lazy-TM extension the paper's conclusion
	// proposes.
	Lazy bool
	// TraceN records the first N transaction events (begin/commit/abort)
	// for diagnostics; 0 disables tracing, negative records the whole run.
	TraceN int
	// ExtTrace additionally records extended observability events
	// (advisory-lock acquire/release, irrevocable section boundaries) for
	// timeline export (internal/obs). Requires TraceN != 0.
	ExtTrace bool
	// Machine optionally overrides the simulated machine configuration;
	// nil uses the paper's Table 2 machine.
	Machine *htm.Config
	// Stagger optionally overrides the runtime configuration; nil uses
	// the paper's parameters for the selected mode.
	Stagger *stagger.Config
	// Chaos enables deterministic fault injection (nil or all-zero rates:
	// fault-free, bit-identical to the baseline simulator).
	Chaos *chaos.Config
	// Watchdog bounds each core's virtual clock; a run exceeding it fails
	// loudly with the last trace events instead of hanging (0 = no
	// bound). Overrides Machine.WatchdogCycles when nonzero.
	Watchdog uint64
	// WatchdogTrace sizes the watchdog's last-events ring (0 = the htm
	// default). Exploration campaigns raise it so a timed-out adversarial
	// schedule leaves a useful tail.
	WatchdogTrace int

	// Sched selects an adversarial scheduler replacing the engine's
	// deterministic minimum-time tie-break ("" = baseline; see sched.Parse
	// for the grammar: "random", "pct:<d>", "replay:<file>", "...@<window>").
	Sched string
	// SchedSeed seeds the random and PCT schedulers (0 = use Seed). Each
	// exploration run varies SchedSeed while Seed keeps the workload fixed.
	SchedSeed int64
	// Record captures every scheduler decision; the sequence is returned in
	// Result.SchedPicks and replays the run bit-identically.
	Record bool
	// ReplayPicks, when non-nil (even empty), replays an in-memory decision
	// sequence, overriding Sched's strategy but keeping its window. The
	// trace minimizer probes candidate prefixes this way.
	ReplayPicks []uint32

	// Oracle installs the serializability checker: committed read sets are
	// validated against a shadow memory in commit order, operation tags are
	// re-executed on the workload's sequential reference model, and final
	// memory must match the shadow. Results land in Result.OracleErr.
	Oracle bool
	// UnsafeEarlyRelease enables the test-only broken irrevocable fallback
	// (global lock released before the body); it exists so tests can prove
	// the oracle catches a real atomicity violation end to end.
	UnsafeEarlyRelease bool

	// SiteRecorder observes every transactional site access (the
	// static/dynamic conformance checker of -verify-static); nil disables
	// recording.
	SiteRecorder stagger.SiteRecorder
}

// Result is everything one run produces.
type Result struct {
	Config   RunConfig
	Stats    htm.Stats
	Metrics  stagger.Metrics
	NumABs   int
	TotalOps int

	// Static instrumentation statistics from the compiler pass.
	StaticAccesses, StaticAnchors int

	// PerAB carries per-atomic-block policy aggregates (diagnostics).
	PerAB map[int]*stagger.ABMetrics

	// LA and LP report conflict locality: whether a single conflicting
	// address (resp. anchor PC) dominates the run's conflicts (Table 1).
	LA, LP bool

	// ConfAddrs and ConfPCs are the full conflict-attribution histograms
	// behind LA/LP: conflict aborts per conflicting line address and per
	// true initial-access anchor site (internal/obs renders the top
	// entries; LA/LP are their majority predicates).
	ConfAddrs map[mem.Addr]int
	ConfPCs   map[uint32]int

	// ConfPairs is the fully attributed conflict-pair histogram: which
	// (atomic block, site) aborted which. It is the dynamic evidence the
	// static may-conflict matrix is checked against (`staggersim
	// -verify-conflicts`); pairs with an unattributed side are excluded.
	ConfPairs map[stagger.ConflictPair]int

	// Trace holds recorded transaction events when TraceN > 0.
	Trace []htm.TraceEvent

	// VerifyErr is non-nil if the workload's invariants failed.
	VerifyErr error

	// Faults counts injected faults by class (all zero without chaos).
	Faults chaos.Counts

	// SchedPicks is the recorded scheduler decision sequence (Record).
	SchedPicks []uint32
	// OracleCommits is how many atomic sections the oracle validated.
	OracleCommits int
	// OracleErr is non-nil if the serializability oracle found a violation
	// (including a final reference-model mismatch).
	OracleErr error

	// Compiled is the compiler-pass output the run executed under, for
	// post-run static/dynamic conformance checking.
	Compiled *anchor.Compiled
}

// Makespan returns the simulated duration in cycles.
func (r *Result) Makespan() uint64 { return r.Stats.Makespan }

// AbortsPerCommit forwards the Table 4 metric.
func (r *Result) AbortsPerCommit() float64 { return r.Stats.AbortsPerCommit() }

// WastedOverUseful forwards the Table 1 metric.
func (r *Result) WastedOverUseful() float64 { return r.Stats.WastedOverUseful() }

// TMFraction returns the share of total cycles spent in transactional
// mode (%TM of Table 4).
func (r *Result) TMFraction() float64 {
	var total uint64
	for _, cs := range r.Stats.PerCore {
		total += cs.FinalClock
	}
	if total == 0 {
		return 0
	}
	return float64(r.Stats.TxCycles()) / float64(total)
}

// UopsPerTxn returns mean transactional µ-ops per committed transaction.
func (r *Result) UopsPerTxn() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Stats.TxUops) / float64(r.Stats.Commits)
}

// AnchorsPerTxn returns mean executed ALPs per committed transaction.
func (r *Result) AnchorsPerTxn() float64 {
	if r.Stats.Commits == 0 {
		return 0
	}
	return float64(r.Metrics.ALPVisits) / float64(r.Stats.Commits)
}

// Run executes one experiment cell.
func Run(rc RunConfig) (*Result, error) { return RunCtx(context.Background(), rc) }

// RunCtx is Run under a context. Cancelling ctx abandons the simulation
// at the cores' next globally ordered events — within one event per
// core, not after draining the workload — and returns an error wrapping
// ctx's error; no partial Result escapes a cancelled run. A background
// (never-cancelled) context takes the exact historical path: the
// machine's cancellation hook stays unarmed and costs nothing.
func RunCtx(ctx context.Context, rc RunConfig) (*Result, error) {
	w, err := workloads.Get(rc.Benchmark)
	if err != nil {
		return nil, err
	}
	if rc.Threads <= 0 {
		return nil, fmt.Errorf("harness: Threads must be positive")
	}
	if rc.TotalOps == 0 {
		rc.TotalOps = w.TotalOps
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}

	// Resolve the backend first: the effective mode decides the machine's
	// conflicting-PC hardware, and the backend may adjust the machine
	// config (the limited variant's capacity bound).
	name := rc.Backend
	if name == "" {
		name = "staggered"
		if rc.Mode == stagger.ModeHTM {
			name = "htm"
		}
	}
	bk, err := backend.Get(name)
	if err != nil {
		return nil, err
	}
	if bk.Software {
		rc.Mode = stagger.ModeHTM
	} else {
		rc.Mode = stagger.ResolveMode(name, rc.Mode)
	}

	mcfg := htm.DefaultConfig()
	if rc.Machine != nil {
		mcfg = *rc.Machine
	}
	if rc.Threads > mcfg.Cores {
		return nil, fmt.Errorf("harness: %d threads exceed %d cores", rc.Threads, mcfg.Cores)
	}
	mcfg.HardwareCPC = rc.Mode == stagger.ModeStaggeredHW
	mcfg.Lazy = rc.Lazy
	mcfg.Seed = rc.Seed
	if rc.Watchdog != 0 {
		mcfg.WatchdogCycles = rc.Watchdog
	}
	if rc.WatchdogTrace != 0 {
		mcfg.WatchdogTrace = rc.WatchdogTrace
	}
	if bk.PrepareMachine != nil {
		bk.PrepareMachine(&mcfg, backend.Options{Capacity: rc.Capacity})
	}

	aopts := anchor.DefaultOptions()
	aopts.PCBits = mcfg.PCTagBits
	aopts.Naive = rc.Naive
	comp := anchor.Compile(w.Mod, aopts)

	mach := htm.New(mcfg)
	if rc.TraceN != 0 {
		limit := rc.TraceN
		if limit < 0 {
			limit = 0 // unlimited
		}
		if rc.ExtTrace {
			mach.EnableTraceExt(limit)
		} else {
			mach.EnableTrace(limit)
		}
	}

	var recorder *sched.Recorder
	scheduler, err := buildScheduler(rc, mcfg.Cores)
	if err != nil {
		return nil, err
	}
	if scheduler != nil {
		if rc.Record {
			recorder = sched.NewRecorder(scheduler)
			scheduler = recorder
		}
		mach.SetScheduler(scheduler)
	}

	scfg := stagger.DefaultConfig(rc.Mode)
	if rc.Stagger != nil {
		scfg = *rc.Stagger
		scfg.Mode = rc.Mode
	}
	scfg.UnsafeEarlyGlobalRelease = scfg.UnsafeEarlyGlobalRelease || rc.UnsafeEarlyRelease
	var inj *chaos.Injector
	if rc.Chaos != nil && rc.Chaos.Enabled() {
		inj = chaos.NewInjector(*rc.Chaos, mcfg.Cores)
		mach.SetFaultInjector(inj)
		scfg.LockFaults = inj
	}
	// The concrete stagger runtime, when the backend has one, is recovered
	// for the stagger-specific result fields below.
	brt, err := bk.New(mach, comp, backend.Options{
		Capacity:      rc.Capacity,
		StaggerConfig: scfg,
		SiteRecorder:  rc.SiteRecorder,
	})
	if err != nil {
		return nil, err
	}
	var rt *stagger.Runtime
	if u, ok := brt.(interface{ Unwrap() *stagger.Runtime }); ok {
		rt = u.Unwrap()
	}

	if done := ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := mach.CancelOn(done)
		defer stop()
	}

	w.Setup(mach, rc.Seed)

	// The oracle snapshots memory after setup so the shadow starts from the
	// seeded data, and builds the reference model afterwards so it can
	// capture post-setup addresses.
	var chk *oracle.Checker
	var model oracle.RefModel
	if rc.Oracle {
		if w.RefModel != nil {
			model = w.RefModel(mach, rc.Seed)
		}
		chk = oracle.New(mach.Mem.Snapshot(), model)
		mach.SetObserver(chk)
	}

	bodies := make([]func(*htm.Core), rc.Threads)
	for tid := 0; tid < rc.Threads; tid++ {
		n := splitOps(rc.TotalOps, rc.Threads, tid)
		bodies[tid] = w.Body(brt, tid, rc.Threads, n, rc.Seed)
	}
	if err := mach.RunChecked(bodies); err != nil {
		var ce *htm.CancelError
		if errors.As(err, &ce) {
			// Surface the context's error so callers can errors.Is it
			// against context.Canceled / DeadlineExceeded.
			cause := ctx.Err()
			if cause == nil {
				cause = err
			}
			return nil, fmt.Errorf("harness: %s (%s, %d threads): abandoned at cycle %d: %w",
				rc.Benchmark, rc.Mode, rc.Threads, ce.Cycles, cause)
		}
		return nil, fmt.Errorf("harness: %s (%s, %d threads): %w",
			rc.Benchmark, rc.Mode, rc.Threads, err)
	}

	res := &Result{
		Config:         rc,
		Stats:          mach.Stats(),
		NumABs:         len(w.Mod.Atomics),
		TotalOps:       rc.TotalOps,
		StaticAccesses: comp.StaticAccesses,
		StaticAnchors:  comp.StaticAnchors,
		VerifyErr:      w.Verify(mach, rc.Threads, rc.TotalOps),
		Compiled:       comp,
	}
	if rt != nil {
		// Stagger-specific attribution; software backends (no concrete
		// stagger runtime) report through htm.Stats alone.
		res.Metrics = rt.Metrics
		res.LA, res.LP = rt.Locality()
		res.ConfAddrs = rt.ConflictAddrs()
		res.ConfPCs = rt.ConflictPCs()
		res.ConfPairs = rt.ConflictPairs()
		res.PerAB = rt.PerAB()
	}
	res.Trace = mach.Trace()
	if inj != nil {
		res.Faults = inj.Counts()
	}
	if recorder != nil {
		res.SchedPicks = recorder.Picks()
	}
	if chk != nil {
		chk.FinalCheck(mach.Mem)
		res.OracleCommits = chk.Commits()
		res.OracleErr = chk.Err()
		if res.OracleErr == nil {
			if f, ok := model.(oracle.Finisher); ok {
				if ferr := f.Finish(); ferr != nil {
					res.OracleErr = fmt.Errorf("oracle: final model check: %w", ferr)
				}
			}
		}
	}
	return res, nil
}

// buildScheduler resolves the RunConfig's scheduling fields into an htm
// scheduler (nil = the engine's deterministic baseline).
func buildScheduler(rc RunConfig, cores int) (htm.Scheduler, error) {
	window := uint64(sched.DefaultWindow)
	var spec sched.Spec
	haveSpec := false
	if rc.Sched != "" {
		var err error
		spec, err = sched.Parse(rc.Sched)
		if err != nil {
			return nil, err
		}
		window = spec.Window
		haveSpec = true
	}
	if rc.ReplayPicks != nil {
		return sched.NewReplay(rc.ReplayPicks, window), nil
	}
	if !haveSpec {
		return nil, nil
	}
	seed := rc.SchedSeed
	if seed == 0 {
		seed = rc.Seed
	}
	return spec.New(seed, cores)
}

func splitOps(total, threads, tid int) int {
	n := total / threads
	if tid < total%threads {
		n++
	}
	return n
}

// Speedup runs the benchmark sequentially (1 thread, baseline HTM) and
// in parallel under rc, returning parallel speedup over sequential.
func Speedup(rc RunConfig) (float64, *Result, error) {
	seq := rc
	// Every backend is measured against the same denominator: the
	// unlimited plain-HTM machine run sequentially.
	seq.Mode = stagger.ModeHTM
	seq.Backend = "htm"
	seq.Threads = 1
	seqRes, err := Run(seq)
	if err != nil {
		return 0, nil, err
	}
	parRes, err := Run(rc)
	if err != nil {
		return 0, nil, err
	}
	if parRes.Makespan() == 0 {
		return 0, parRes, fmt.Errorf("harness: zero makespan")
	}
	return float64(seqRes.Makespan()) / float64(parRes.Makespan()), parRes, nil
}
