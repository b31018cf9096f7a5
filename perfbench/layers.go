package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stagger"
	"repro/internal/store"
)

// outcome counts the units of work a run attempted (cells, jobs,
// rendered outputs) and the ones that failed a check.
type outcome struct {
	attempted, failed int
	problems          []string
}

// unit records one attempted unit; a non-nil err marks it failed.
func (o *outcome) unit(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 10 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

// simEvents counts a run's simulated memory events, the unit of
// sim_events_per_s (the same count staggerbench uses).
func simEvents(s *htm.Stats) uint64 { return s.Loads + s.Stores + s.NTLoads + s.NTStores }

func cellName(rc harness.RunConfig) string {
	sys := rc.Backend
	if sys == "" {
		sys = modeToken(rc.Mode)
	}
	return fmt.Sprintf("%s/%s/t%d/seed%d", rc.Benchmark, sys, rc.Threads, rc.Seed)
}

// modeToken spells a mode the way the service's cell specs accept it.
func modeToken(m stagger.Mode) string { return strings.ToLower(m.String()) }

// verified turns a run's verification verdict into an error.
func verified(rc harness.RunConfig, r *harness.Result, err error) error {
	if err == nil && r.VerifyErr != nil {
		err = fmt.Errorf("%s: verify: %w", cellName(rc), r.VerifyErr)
	}
	return err
}

// sameSim checks that a traced re-creation simulated exactly what the
// untraced harness.Run of the same cell did.
func sameSim(rc harness.RunConfig, ct *cellTrace, r *harness.Result) error {
	switch {
	case !reflect.DeepEqual(ct.stats, r.Stats):
		return fmt.Errorf("%s: traced run simulated events=%d makespan=%d commits=%d aborts=%v, untraced events=%d makespan=%d commits=%d aborts=%v",
			cellName(rc), simEvents(&ct.stats), ct.stats.Makespan, ct.stats.Commits, ct.stats.Aborts,
			simEvents(&r.Stats), r.Stats.Makespan, r.Stats.Commits, r.Stats.Aborts)
	case ct.metrics != r.Metrics:
		return fmt.Errorf("%s: traced and untraced advisory-lock metrics differ", cellName(rc))
	case (ct.verifyErr == nil) != (r.VerifyErr == nil):
		return fmt.Errorf("%s: traced and untraced verification disagree", cellName(rc))
	}
	return nil
}

// simAgg sums simulated counters over a workload's cells.
type simAgg struct {
	events, runNS, mallocs                                  float64
	commits, aborts, irrev, wasted, useful, l1Hits, lookups float64
	// Cells under an instrumented (staggered) mode.
	sCommits, locks, hold, lockWait, cycles, contended, alp, accHits, accTotal float64
	anchors, accesses                                                          map[string]int
	// Cells on the software OCC backend.
	occCommits, occAborts float64
}

func (a *simAgg) add(rc harness.RunConfig, ct *cellTrace) {
	s := &ct.stats
	a.events += float64(simEvents(s))
	a.runNS += float64(ct.runNS)
	a.mallocs += float64(ct.mallocs)
	a.commits += float64(s.Commits)
	a.aborts += float64(s.TotalAborts())
	a.irrev += float64(s.IrrevocableCommits)
	a.wasted += float64(s.WastedTxCycles)
	a.useful += float64(s.UsefulTxCycles)
	a.l1Hits += float64(s.L1Hits)
	a.lookups += float64(s.L1Hits + s.L2Hits + s.L3Hits + s.MemAccesses)
	if ct.mode.Instrumented() {
		m := &ct.metrics
		a.sCommits += float64(s.Commits)
		a.locks += float64(m.LocksAcquired)
		a.hold += float64(m.LockHoldCycles)
		a.lockWait += float64(s.WaitCycles[htm.WaitLock])
		for _, c := range s.PerCore {
			a.cycles += float64(c.FinalClock)
		}
		a.contended += float64(m.ContendedCommits)
		a.alp += float64(m.ALPVisits)
		a.accHits += float64(m.AccHits)
		a.accTotal += float64(m.AccTotal)
		if a.anchors == nil {
			a.anchors, a.accesses = map[string]int{}, map[string]int{}
		}
		a.anchors[rc.Benchmark] = ct.staticAnchors
		a.accesses[rc.Benchmark] = ct.staticAccesses
	}
	if rc.Backend == "occ" {
		a.occCommits += float64(s.Commits)
		a.occAborts += float64(s.TotalAborts())
	}
}

func (a *simAgg) report(vals map[string]float64) {
	vals["htm.ns_per_event"] = ratio(a.runNS, a.events)
	vals["htm.allocs_per_event"] = ratio(a.mallocs, a.events)
	vals["htm.commit_frac"] = ratio(a.commits, a.commits+a.aborts)
	vals["htm.wasted_over_useful"] = ratio(a.wasted, a.useful)
	vals["htm.irrevocable_frac"] = ratio(a.irrev, a.commits)
	vals["htm.l1_hit_frac"] = ratio(a.l1Hits, a.lookups)
	vals["htm.aborts_per_commit"] = ratio(a.aborts, a.commits)
	vals["stagger.locks_acquired"] = a.locks
	vals["stagger.lock_wait_frac"] = ratio(a.lockWait, a.cycles)
	vals["stagger.lock_hold_cycles"] = ratio(a.hold, a.locks)
	vals["stagger.contended_commit_frac"] = ratio(a.contended, a.sCommits)
	vals["stagger.alp_visits_per_commit"] = ratio(a.alp, a.sCommits)
	vals["stagger.accuracy"] = 1
	if a.accTotal > 0 {
		vals["stagger.accuracy"] = a.accHits / a.accTotal
	}
	var anchors, accesses int
	for b, n := range a.anchors {
		anchors += n
		accesses += a.accesses[b]
	}
	vals["anchor.instrumented_frac"] = ratio(float64(anchors), float64(accesses))
	vals["occ.commit_frac"] = ratio(a.occCommits, a.occCommits+a.occAborts)
}

// cellLayers is the part of every traced run that works cell by cell.
// It re-creates each cell's harness.Run call sequence with spans under
// the CPU profiler and checks the simulated outcome against untraced;
// then it encodes each untraced result as the service stores it (obs)
// and puts, gets and reopens those payloads in a scratch store.
func cellLayers(t *tracer, o *outcome, cells []harness.RunConfig,
	untraced func(harness.RunConfig) (*harness.Result, error),
	scratch string, vals map[string]float64) (map[string]int64, error) {
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	var agg simAgg
	results := make([]*harness.Result, len(cells))
	for i, rc := range cells {
		cell := t.begin("cell", cellName(rc), 0) // harness.Run, re-created
		ct, err := tracedRun(t, cell, cellName(rc), rc)
		t.end(cell)
		if err == nil {
			agg.add(rc, ct)
			var ref *harness.Result
			ref, err = untraced(rc)
			if err = verified(rc, ref, err); err == nil {
				err = sameSim(rc, ct, ref)
				results[i] = ref
			}
		}
		o.unit(err)
	}
	samples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	cpuShares(samples, vals)
	agg.report(vals)
	vals["htm.run_ms"] = t.meanOf(runCheckedLabel, time.Millisecond)
	for name, span := range map[string]string{
		"workloads.build_us":  "workloads.Get",
		"workloads.seed_us":   "workloads.Setup",
		"workloads.verify_us": "workloads.Verify",
		"anchor.compile_us":   "anchor.Compile",
		"htm.machine_us":      "htm.New",
	} {
		vals[name] = t.meanOf(span, time.Microsecond)
	}

	// obs: the report plus the JSON encoding the service stores.
	var payloads [][]byte
	for i, r := range results {
		if r == nil {
			continue
		}
		id := t.begin("obs.Snapshot", cellName(cells[i]), 0)
		cr := service.CellResult{Key: cellName(cells[i]), Report: obs.Snapshot(r)}
		b, err := json.MarshalIndent(&cr, "", "  ")
		t.end(id)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, b)
	}
	vals["obs.snapshot_us"] = t.meanOf("obs.Snapshot", time.Microsecond)

	// store: durable puts, verified gets, and a reopen over the entries.
	st, err := store.Open(scratch)
	if err != nil {
		return nil, err
	}
	for i, b := range payloads {
		key := fmt.Sprintf("perfbench|%d", i)
		id := t.begin("store.Put", key, 0)
		err := st.Put(key, b)
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	for i, b := range payloads {
		key := fmt.Sprintf("perfbench|%d", i)
		id := t.begin("store.Get", key, 0)
		got, err := st.Get(key)
		t.end(id)
		if err == nil && string(got) != string(b) {
			err = errors.New("store: payload read back differs from the one written")
		}
		o.unit(err)
	}
	id := t.begin("store.Open", scratch, 0)
	_, err = store.Open(scratch)
	t.end(id)
	if err != nil {
		return nil, err
	}
	vals["store.put_us"] = t.meanOf("store.Put", time.Microsecond)
	vals["store.get_us"] = t.meanOf("store.Get", time.Microsecond)
	vals["store.open_ms"] = t.meanOf("store.Open", time.Millisecond)
	return selfByFunc(samples), nil
}
