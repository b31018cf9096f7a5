package main

import (
	"bytes"
	"fmt"

	"repro/internal/anchor"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stagger"
	"repro/internal/staticcheck"
	"repro/internal/workloads"
)

// generateAppendix simulates the Table 1 cells (baseline HTM at 16
// threads, default operation counts, seed 42 — the benchmarks
// harness.Table1 reports, so the attribution matches the table it
// annotates) and renders the abort-attribution appendix: a per-workload
// cycle-breakdown table and the top-N conflicting anchors per workload.
func generateAppendix(topN int) ([]byte, error) {
	benches := harness.Table1Benchmarks()
	cfgs := make([]harness.RunConfig, len(benches))
	for i, b := range benches {
		cfgs[i] = harness.RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: harness.PaperThreads}
	}
	res, err := harness.RunVerified(cfgs)
	if err != nil {
		return nil, err
	}
	reps := make([]*obs.Report, len(res))
	for i, r := range res {
		reps[i] = obs.Snapshot(r)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "\nEvery number in this appendix regenerates deterministically from the\n")
	fmt.Fprintf(&b, "Table 1 cells (baseline HTM, 16 threads, seed 42) via\n")
	fmt.Fprintf(&b, "`go run ./cmd/staggerreport -appendix`; `make docs-verify` fails CI when\n")
	fmt.Fprintf(&b, "this text and the simulator disagree. The same data for any single run\n")
	fmt.Fprintf(&b, "is available as JSON from `staggersim -metrics`.\n\n")

	fmt.Fprintf(&b, "### Cycle breakdown per workload\n\n")
	fmt.Fprintf(&b, "Cycles across all 16 cores; percentages are of summed per-core final\n")
	fmt.Fprintf(&b, "clocks. NT-overhead (advisory-lock traffic inside attempts) is zero\n")
	fmt.Fprintf(&b, "here because baseline HTM takes no advisory locks — compare the same\n")
	fmt.Fprintf(&b, "cells under `-mode staggered` to see it appear.\n\n")
	fmt.Fprintf(&b, "| Benchmark | useful | wasted | lock-wait | backoff | global-wait | NT-ovh | W/U |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for i, rep := range reps {
		var total uint64
		for _, pc := range rep.PerCore {
			total += pc.FinalClock
		}
		pct := func(v uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%d (%.0f%%)", v, 100*float64(v)/float64(total))
		}
		c := rep.Cycles
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %d | %.2f |\n",
			benches[i], pct(c.Useful), pct(c.Wasted), pct(c.LockWait),
			pct(c.Backoff), pct(c.GlobalWait), c.NTOverhead, rep.WastedOverUseful)
	}

	if err := conflictMatrixSection(&b); err != nil {
		return nil, err
	}

	fmt.Fprintf(&b, "\n### Top-%d conflicting anchors per workload\n\n", topN)
	fmt.Fprintf(&b, "The static sites whose cache lines killed the most transactions — the\n")
	fmt.Fprintf(&b, "`conflicting_anchors` histogram behind Table 1's LP column (an LP of Y\n")
	fmt.Fprintf(&b, "means one of these dominates its workload's conflicts).\n\n")
	fmt.Fprintf(&b, "| Benchmark | anchor | where | conflict aborts |\n")
	fmt.Fprintf(&b, "|---|---|---|---:|\n")
	for i, rep := range reps {
		pcs := rep.ConfPCs
		if len(pcs) > topN {
			pcs = pcs[:topN]
		}
		if len(pcs) == 0 {
			fmt.Fprintf(&b, "| %s | — | no conflict aborts | 0 |\n", benches[i])
			continue
		}
		for j, p := range pcs {
			name := benches[i]
			if j > 0 {
				name = ""
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %d |\n", name, p.PC, p.Where, p.Aborts)
		}
	}
	return b.Bytes(), nil
}

// conflictMatrixSection renders the static conflict-prediction summary
// for every workload: conflict classes, may-conflict atomic-block pairs,
// and the advisory-lock sufficiency/precision verdicts that
// `staggersim -verify-conflicts` (the conflict-verify CI gate) proves,
// including its dynamic containment cross-validation.
func conflictMatrixSection(b *bytes.Buffer) error {
	fmt.Fprintf(b, "\n### Static conflict prediction per workload\n\n")
	fmt.Fprintf(b, "The may-conflict matrix built by `internal/staticcheck` over each\n")
	fmt.Fprintf(b, "workload's IR: DSA conflict classes unified across atomic blocks, the\n")
	fmt.Fprintf(b, "block pairs that can conflict at all, and the advisory-lock checks —\n")
	fmt.Fprintf(b, "sufficiency (every may-conflicting pair has an armable lock on all\n")
	fmt.Fprintf(b, "paths) and precision (no lock serializes a provably read-only class,\n")
	fmt.Fprintf(b, "modulo the waivers listed). `staggersim -verify-conflicts` additionally\n")
	fmt.Fprintf(b, "proves containment: every conflicting site pair observed dynamically\n")
	fmt.Fprintf(b, "falls inside this matrix.\n\n")
	fmt.Fprintf(b, "| Benchmark | atomic blocks | conflict classes | written | may-conflict pairs | waived sites |\n")
	fmt.Fprintf(b, "|---|---:|---:|---:|---:|---:|\n")
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			return err
		}
		comp := anchor.Compile(w.Mod, anchor.DefaultOptions())
		mc, viols := staticcheck.VerifyConflicts(comp, workloads.ConflictWaivers(name))
		if len(viols) > 0 {
			return fmt.Errorf("%s: %d conflict-prediction violation(s); run `staggersim -verify-conflicts -bench %s`", name, len(viols), name)
		}
		written := 0
		for _, root := range mc.Classes() {
			if mc.WrittenByAny(root) {
				written++
			}
		}
		pairs := 0
		ids := make([]int, 0, len(w.Mod.Atomics))
		for _, ab := range w.Mod.Atomics {
			ids = append(ids, ab.ID)
		}
		for i, a := range ids {
			for _, bb := range ids[i:] {
				if mc.MayConflictPair(a, bb) {
					pairs++
				}
			}
		}
		fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %d |\n",
			name, len(w.Mod.Atomics), len(mc.Classes()), written, pairs, len(workloads.ConflictWaivers(name)))
	}
	return nil
}
