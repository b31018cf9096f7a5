package harness

import (
	"context"
	"sync"
)

// Table and figure generators share experiment cells (Table 4's baseline
// runs are Figure 7's denominators, for example). Because every run is
// deterministic in its RunConfig, results can be memoized safely. Note
// that worker count is deliberately NOT part of the key: parallelism
// exists only between runs, never inside one, so a cell's Result is a
// pure function of its RunConfig regardless of how many sibling cells
// were simulating concurrently (TestCacheSharedAcrossWorkerCounts pins
// this down).

// CacheSchema versions the meaning of a cached result: bump it whenever
// the simulation's observable output for an unchanged RunConfig changes
// (new machine defaults, changed cycle accounting, new Result fields).
// It is part of every in-process cache key and embedded in every durable
// store key (internal/service), so entries written by an older schema
// are simply never found — they age out as misses and are recomputed,
// never deserialized under the wrong interpretation.
//
// Schema history: 2 added the conflicting-pair histogram
// (Result.ConfPairs and the report's conflicting_pairs section); 3
// added concurrency-control backend selection (RunConfig.Backend and
// Capacity join the key, and backend resolution can rewrite the
// effective mode); 4 made exploration campaigns run their whole cell
// (stored explore results now honour naive, lazy and watchdog).
const CacheSchema = 4

type cacheKey struct {
	schema    int
	bench     string
	mode      int
	backend   string
	capacity  int
	threads   int
	seed      int64
	totalOps  int
	naive     bool
	lazy      bool
	sched     string
	schedSeed int64
	oracle    bool
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*Result{}
)

// cacheableKey reports whether rc is eligible for memoization and, if so,
// its canonical cache key. Configs with machine/runtime overrides or
// run-scoped side channels (trace capture, fault injection, watchdogs,
// pick recording/replay, site recording) must execute for real every time.
func cacheableKey(rc RunConfig) (cacheKey, bool) {
	if rc.Machine != nil || rc.Stagger != nil || rc.TraceN != 0 || rc.ExtTrace ||
		rc.Chaos != nil || rc.Watchdog != 0 || rc.WatchdogTrace != 0 ||
		rc.Record || rc.ReplayPicks != nil || rc.UnsafeEarlyRelease ||
		rc.SiteRecorder != nil {
		return cacheKey{}, false
	}
	if rc.Seed == 0 {
		rc.Seed = 42 // match Run's default so keys are canonical
	}
	return cacheKey{CacheSchema, rc.Benchmark, int(rc.Mode), rc.Backend, rc.Capacity,
		rc.Threads, rc.Seed, rc.TotalOps, rc.Naive, rc.Lazy,
		rc.Sched, rc.SchedSeed, rc.Oracle}, true
}

// RunCached is Run with memoization over the default machine and runtime
// configurations. Configs with overrides bypass the cache.
func RunCached(rc RunConfig) (*Result, error) {
	return RunCachedCtx(context.Background(), rc)
}

// RunCachedCtx is RunCached under a context: a cache hit returns
// immediately regardless of ctx, a miss computes through RunCtx, and a
// cancelled computation is never cached — the next caller recomputes, so
// cancellation can never leave a partial or poisoned entry behind.
func RunCachedCtx(ctx context.Context, rc RunConfig) (*Result, error) {
	key, ok := cacheableKey(rc)
	if !ok {
		return RunCtx(ctx, rc)
	}
	cacheMu.Lock()
	r, hit := cache[key]
	cacheMu.Unlock()
	if hit {
		return r, nil
	}
	r, err := RunCtx(ctx, rc)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	cache[key] = r
	cacheMu.Unlock()
	return r, nil
}

// ClearCache drops all memoized results (tests use it for isolation).
func ClearCache() {
	cacheMu.Lock()
	cache = map[cacheKey]*Result{}
	cacheMu.Unlock()
}
