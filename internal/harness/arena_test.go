package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/stagger"
	"repro/internal/workloads"
)

// TestArenaAllBackendsAllWorkloads is the arena's acceptance gate: every
// registered backend runs every workload under the serializability
// oracle, for two seeds, and must produce a clean verdict plus a sane
// result. A new backend registered without passing this table is broken
// by definition.
func TestArenaAllBackendsAllWorkloads(t *testing.T) {
	for _, bk := range backend.Names() {
		for _, wl := range workloads.Names() {
			for _, seed := range []int64{3, 17} {
				bk, wl, seed := bk, wl, seed
				t.Run(bk+"/"+wl+"/seed"+string(rune('0'+seed%10)), func(t *testing.T) {
					t.Parallel()
					res, err := Run(RunConfig{
						Benchmark: wl, Backend: bk, Threads: 4,
						Seed: seed, TotalOps: 120, Oracle: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.VerifyErr != nil {
						t.Fatalf("verify: %v", res.VerifyErr)
					}
					if res.OracleErr != nil {
						t.Fatalf("oracle: %v", res.OracleErr)
					}
					if res.OracleCommits == 0 || res.Stats.Commits == 0 {
						t.Fatal("no commits validated")
					}
					if res.Makespan() == 0 {
						t.Fatal("zero makespan")
					}
				})
			}
		}
	}
}

// TestArenaUnknownBackend pins the contract that a bad backend name
// fails fast with the list of registered names, so a typo at any layer
// (flag, job spec, config file) is self-diagnosing.
func TestArenaUnknownBackend(t *testing.T) {
	_, err := Run(RunConfig{Benchmark: "kmeans", Backend: "bogus", Threads: 1})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range backend.Names() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list registered backend %q", err, want)
		}
	}
}

// TestLimitedCapacityKnob checks the limited backend's speculative
// line-capacity model: a tiny capacity must force capacity overflows
// (the paper's limited read/write-set HTM failure mode) while the runs
// stay serializable, and raising the capacity must make the pressure
// disappear.
func TestLimitedCapacityKnob(t *testing.T) {
	run := func(capacity int) *Result {
		t.Helper()
		res, err := Run(RunConfig{
			Benchmark: "vacation", Backend: "limited", Capacity: capacity,
			Threads: 4, Seed: 7, TotalOps: 120, Oracle: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("capacity %d: verify: %v", capacity, res.VerifyErr)
		}
		if res.OracleErr != nil {
			t.Fatalf("capacity %d: oracle: %v", capacity, res.OracleErr)
		}
		return res
	}
	tiny := run(2)
	if n := tiny.Stats.Aborts[htm.AbortOverflow]; n == 0 {
		t.Fatal("capacity 2 produced no overflow aborts")
	}
	big := run(4096)
	if n := big.Stats.Aborts[htm.AbortOverflow]; n != 0 {
		t.Fatalf("capacity 4096 still overflowed %d times", n)
	}
}

// TestArenaLegacyPathUnchanged proves Backend "" and Backend "htm"
// simulate the same machine: an empty backend under ModeHTM must resolve
// to the htm registry entry, bit-identically.
func TestArenaLegacyPathUnchanged(t *testing.T) {
	legacy, err := Run(RunConfig{
		Benchmark: "ssca2", Mode: stagger.ModeHTM, Threads: 4, Seed: 5, TotalOps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	arena, err := Run(RunConfig{
		Benchmark: "ssca2", Backend: "htm", Threads: 4, Seed: 5, TotalOps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Stats, arena.Stats) {
		t.Fatalf("backend=htm diverged from the empty backend:\nempty %+v\nhtm   %+v",
			legacy.Stats, arena.Stats)
	}
}

// TestArenaEngineEquivalence extends the coop-vs-reference engine proof
// to the new backends: the software OCC runtime and the limited HTM
// variant must be bit-identical under both token-handoff engines, like
// every other client of the simulator.
func TestArenaEngineEquivalence(t *testing.T) {
	for _, bk := range []string{"occ", "limited"} {
		run := func(ref bool) htm.Stats {
			t.Helper()
			mcfg := htm.DefaultConfig()
			mcfg.RefEngine = ref
			res, err := Run(RunConfig{
				Benchmark: "intruder", Backend: bk, Threads: 4,
				Seed: 11, TotalOps: 150, Machine: &mcfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		coop, refStats := run(false), run(true)
		if !reflect.DeepEqual(coop, refStats) {
			t.Fatalf("%s: engines diverged:\ncoop %+v\nref  %+v", bk, coop, refStats)
		}
	}
}

// TestArenaCacheSeparation pins backend and capacity into the memo key:
// cells that differ only in backend (or only in capacity) must never
// share a cached Result.
func TestArenaCacheSeparation(t *testing.T) {
	ClearCache()
	base := RunConfig{Benchmark: "kmeans", Threads: 2, Seed: 5, TotalOps: 100}
	legacy, err := RunCached(base)
	if err != nil {
		t.Fatal(err)
	}
	htmRC := base
	htmRC.Backend = "htm"
	viaArena, err := RunCached(htmRC)
	if err != nil {
		t.Fatal(err)
	}
	if viaArena == legacy {
		t.Fatal("backend=htm shared a cache entry with the empty backend")
	}
	occRC := base
	occRC.Backend = "occ"
	occ, err := RunCached(occRC)
	if err != nil {
		t.Fatal(err)
	}
	if occ == viaArena || occ == legacy {
		t.Fatal("backend=occ shared a cache entry")
	}
	limA := base
	limA.Backend = "limited"
	limA.Capacity = 8
	limB := limA
	limB.Capacity = 16
	a, err := RunCached(limA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(limB)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct capacities shared a cache entry")
	}
}
