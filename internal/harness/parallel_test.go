package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/prog"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// withWorkers runs f with the package worker default pinned to n and the
// result cache cleared before and after, so parallel-vs-sequential
// comparisons never observe each other's memoized cells.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	ClearCache()
	defer func() {
		SetWorkers(prev)
		ClearCache()
	}()
	f()
}

// statsFingerprint is a stable, complete rendering of a run's observable
// results (every counter, per-core clocks, runtime metrics, and the final
// verification verdict).
func statsFingerprint(r *Result) string {
	return fmt.Sprintf("stats=%+v metrics=%+v makespan=%d verify=%v",
		r.Stats, r.Metrics, r.Makespan(), r.VerifyErr)
}

// TestDeterminismEquivalenceEveryWorkload runs every workload through the
// sweep runner at workers=1 and workers=4 (cold cache each time) and
// requires identical result fingerprints: inter-run parallelism must not
// perturb a single counter of a single simulated run. Under `go test
// -race` this doubles as a data-race check on the whole parallel path.
func TestDeterminismEquivalenceEveryWorkload(t *testing.T) {
	var cfgs []RunConfig
	for _, b := range workloads.Names() {
		cfgs = append(cfgs,
			RunConfig{Benchmark: b, Mode: stagger.ModeHTM, Threads: 4, Seed: 7, TotalOps: 240},
			RunConfig{Benchmark: b, Mode: stagger.ModeStaggeredHW, Threads: 4, Seed: 7, TotalOps: 240})
	}
	fingerprints := func(workers int) []string {
		var fps []string
		withWorkers(t, workers, func() {
			for i, o := range RunAll(context.Background(), cfgs, workers) {
				if o.Err != nil {
					t.Fatalf("workers=%d cell %d (%s): %v", workers, i, cfgs[i].Benchmark, o.Err)
				}
				fps = append(fps, statsFingerprint(o.Res))
			}
		})
		return fps
	}
	seq := fingerprints(1)
	par := fingerprints(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d (%s %s): results diverge across worker counts\nworkers=1: %s\nworkers=4: %s",
				i, cfgs[i].Benchmark, cfgs[i].Mode, seq[i], par[i])
		}
	}
}

// TestTableOutputIdenticalAcrossWorkers regenerates a full table through
// its RunVerified sweep at both worker counts and compares the
// rendered bytes, pinning the tentpole guarantee end to end: the text a
// user sees is identical however many workers simulated it.
func TestTableOutputIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 regeneration in -short mode")
	}
	render := func(workers int) string {
		var s string
		withWorkers(t, workers, func() {
			rows, err := Table1(42)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			s = FormatTable1(rows)
		})
		return s
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("Table 1 bytes diverge across worker counts\nworkers=1:\n%s\nworkers=4:\n%s", seq, par)
	}
}

// TestChaosSweepIdenticalAcrossWorkers pins the campaign runner: parallel
// cells, identical report bytes.
func TestChaosSweepIdenticalAcrossWorkers(t *testing.T) {
	sweep := ChaosSweep{
		Benchmarks: []string{"list-hi", "tsp"},
		Rates:      []float64{0, 0.01},
		Cell:       RunConfig{Mode: stagger.ModeStaggeredHW, Threads: 4, TotalOps: 240},
	}
	render := func(workers int) string {
		var s string
		withWorkers(t, workers, func() {
			cells, err := RunChaosSweep(sweep)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			s = FormatChaos(cells)
		})
		return s
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("chaos report diverges across worker counts\nworkers=1:\n%s\nworkers=4:\n%s", seq, par)
	}
}

// TestExploreIdenticalAcrossWorkers pins the exploration campaign: run
// counts, commit totals, and the failure list (seeds and picks) must not
// depend on worker count, and Progress must fire in run order.
func TestExploreIdenticalAcrossWorkers(t *testing.T) {
	campaign := func(workers int) (string, []int) {
		var fp string
		var order []int
		withWorkers(t, workers, func() {
			ec := ExploreConfig{
				Cell: RunConfig{Benchmark: "list-hi", Mode: stagger.ModeStaggeredHW,
					Threads: 4, TotalOps: 120},
				Runs:     8,
				Progress: func(run int, failed bool) { order = append(order, run) },
			}
			rep, err := Explore(ec)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fp = fmt.Sprintf("runs=%d commits=%d failures=%+v", rep.Runs, rep.Commits, rep.Failures)
		})
		return fp, order
	}
	seq, seqOrder := campaign(1)
	par, parOrder := campaign(4)
	if seq != par {
		t.Fatalf("explore report diverges across worker counts\nworkers=1: %s\nworkers=4: %s", seq, par)
	}
	for i, r := range parOrder {
		if r != i {
			t.Fatalf("Progress fired out of order at workers=4: %v", parOrder)
		}
	}
	if len(seqOrder) != len(parOrder) {
		t.Fatalf("Progress call counts differ: %d vs %d", len(seqOrder), len(parOrder))
	}
}

// TestCacheSharedAcrossWorkerCounts proves the memoization key is worker-
// independent: a cell simulated under a parallel sweep is a cache hit for
// a later sequential sweep (and vice versa), returning the same *Result.
func TestCacheSharedAcrossWorkerCounts(t *testing.T) {
	rc := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	prev := SetWorkers(4)
	ClearCache()
	defer func() {
		SetWorkers(prev)
		ClearCache()
	}()
	par := RunAll(context.Background(), []RunConfig{rc, rc}, 2)
	if par[0].Err != nil || par[1].Err != nil {
		t.Fatal(par[0].Err, par[1].Err)
	}
	SetWorkers(1)
	seq, err := RunCached(rc)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par[0].Res && seq != par[1].Res {
		t.Fatal("sequential run missed the cache entry a parallel sweep populated")
	}
}

// recSink is a throwaway SiteRecorder: its presence must force a cache
// bypass (the recorder is a run-scoped side channel).
type recSink struct{}

func (recSink) RecordAccess(*prog.AtomicBlock, *prog.Site, bool) {}

// TestCacheableKeyBypasses pins which configs may never be memoized.
func TestCacheableKeyBypasses(t *testing.T) {
	base := RunConfig{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100}
	if _, ok := cacheableKey(base); !ok {
		t.Fatal("plain config must be cacheable")
	}
	withRec := base
	withRec.SiteRecorder = recSink{}
	if _, ok := cacheableKey(withRec); ok {
		t.Fatal("SiteRecorder config must bypass the cache")
	}
	withWatchdog := base
	withWatchdog.Watchdog = 1 << 20
	if _, ok := cacheableKey(withWatchdog); ok {
		t.Fatal("watchdog config must bypass the cache")
	}
	// Seed 0 canonicalizes to Run's default, so the two configs are the
	// same cell and must share a key.
	zero, a := base, base
	zero.Seed = 0
	a.Seed = 42
	kz, _ := cacheableKey(zero)
	ka, _ := cacheableKey(a)
	if kz != ka {
		t.Fatal("seed 0 must canonicalize to the default seed's key")
	}
}

// TestRunAllOrderingAndErrors pins RunAll's contract: outcomes land at
// their input index whatever the completion order, per-cell errors stay
// per-cell, and a cancelled context marks unstarted cells.
func TestRunAllOrderingAndErrors(t *testing.T) {
	ClearCache()
	defer ClearCache()
	cfgs := []RunConfig{
		{Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
		{Benchmark: "no-such-benchmark", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
		{Benchmark: "list-hi", Mode: stagger.ModeHTM, Threads: 2, Seed: 5, TotalOps: 100},
	}
	out := RunAll(context.Background(), cfgs, 3)
	if out[0].Err != nil || out[0].Res == nil || out[0].Res.Config.Benchmark != "ssca2" {
		t.Fatalf("cell 0: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("unknown benchmark must surface its error at its own index")
	}
	if out[2].Err != nil || out[2].Res.Config.Benchmark != "list-hi" {
		t.Fatalf("cell 2: %+v", out[2])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, o := range RunAll(ctx, cfgs, 2) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("cell %d after cancel: err=%v", i, o.Err)
		}
	}

	// A deliver error must stop the sweep and propagate.
	sentinel := errors.New("stop")
	err := runAllOrdered(context.Background(), cfgs, 2, func(i int, o RunOutcome) error {
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("deliver error not propagated: %v", err)
	}
}

// TestSplitOps pins the per-thread operation split: remainders go to the
// lowest thread IDs, one each, and the shares always sum to the total.
func TestSplitOps(t *testing.T) {
	cases := []struct {
		total, threads int
		want           []int
	}{
		{total: 8, threads: 4, want: []int{2, 2, 2, 2}},
		{total: 10, threads: 4, want: []int{3, 3, 2, 2}},
		{total: 7, threads: 3, want: []int{3, 2, 2}},
		{total: 2, threads: 5, want: []int{1, 1, 0, 0, 0}},
		{total: 0, threads: 3, want: []int{0, 0, 0}},
		{total: 5, threads: 5, want: []int{1, 1, 1, 1, 1}},
		{total: 1, threads: 1, want: []int{1}},
	}
	for _, tc := range cases {
		sum := 0
		for tid := 0; tid < tc.threads; tid++ {
			got := splitOps(tc.total, tc.threads, tid)
			if got != tc.want[tid] {
				t.Errorf("splitOps(%d, %d, %d) = %d, want %d",
					tc.total, tc.threads, tid, got, tc.want[tid])
			}
			sum += got
		}
		if sum != tc.total {
			t.Errorf("splitOps(%d, %d, *) sums to %d", tc.total, tc.threads, sum)
		}
	}
	// Property sweep: shares sum to the total and differ by at most one.
	for total := 0; total <= 40; total++ {
		for threads := 1; threads <= 9; threads++ {
			sum, lo, hi := 0, int(^uint(0)>>1), 0
			for tid := 0; tid < threads; tid++ {
				n := splitOps(total, threads, tid)
				sum += n
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if sum != total || hi-lo > 1 {
				t.Fatalf("splitOps(%d, %d): sum=%d spread=%d", total, threads, sum, hi-lo)
			}
		}
	}
}
