package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Inter-run parallelism. Every simulation is deterministic in its
// RunConfig and shares no mutable state with any other run (each Run
// builds a fresh workload module, machine, runtime, and oracle; the only
// cross-run structure is the memoization cache, which is mutex-guarded
// and value-stable). Independent cells of a sweep can therefore execute
// on as many OS threads as the host offers without perturbing a single
// simulated cycle — the intra-run virtual-time engine stays strictly
// serial, parallelism exists only BETWEEN runs. Results are always
// delivered in input order, never completion order, so every consumer
// (table assembly, campaign reports, CSV writers) emits bytes identical
// to a sequential sweep.

// defaultWorkers is the package-wide worker bound used by the table and
// figure generators and the campaign runners; cmd/paper and
// cmd/staggersim expose it as -workers. 1 reproduces the historical
// strictly sequential execution exactly (no pool, no extra goroutines).
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(int32(runtime.NumCPU())) }

// SetWorkers sets the default sweep parallelism (n <= 0 restores the
// NumCPU default). It returns the previous value so tests can restore it.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(defaultWorkers.Swap(int32(n)))
}

// Workers returns the current default sweep parallelism.
func Workers() int { return int(defaultWorkers.Load()) }

// RunOutcome is one cell's result in a parallel sweep.
type RunOutcome struct {
	Res *Result
	Err error
}

// RunAll executes every configuration with at most workers concurrent
// runs (workers <= 0 uses the package default) and returns the outcomes
// ordered by input index. Each cell goes through RunCached, so repeated
// cells across sweeps are still memoized. Cancelling ctx skips cells
// that have not started and abandons cells mid-simulation at their next
// globally ordered event (both outcomes carry ctx's error), so a
// cancelled sweep returns within roughly one simulated event, not after
// draining the queue.
func RunAll(ctx context.Context, cfgs []RunConfig, workers int) []RunOutcome {
	return runAllCollect(ctx, cfgs, workers, false)
}

// RunAllContained is RunAll with per-cell fault containment: a panic
// inside one cell's run (a poisoned config, a workload bug) becomes that
// cell's *PanicError outcome instead of crashing the process. The
// service layer runs client-supplied jobs through this entry point; the
// CLI generators keep RunAll's fail-fast behaviour, where a panic is a
// bug worth a stack trace.
func RunAllContained(ctx context.Context, cfgs []RunConfig, workers int) []RunOutcome {
	return runAllCollect(ctx, cfgs, workers, true)
}

func runAllCollect(ctx context.Context, cfgs []RunConfig, workers int, contain bool) []RunOutcome {
	out := make([]RunOutcome, len(cfgs))
	runAllOrderedOpt(ctx, cfgs, workers, contain, func(i int, o RunOutcome) error {
		out[i] = o
		return nil
	})
	return out
}

// PanicError is a panic captured from a contained run (RunAllContained).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("harness: run panicked: %v", e.Value) }

// runOne executes one cell, optionally converting a panic into an error
// outcome. The recover sits here — around exactly one cell — so one
// poisoned cell cannot take its worker, its sweep, or the process down.
func runOne(ctx context.Context, rc RunConfig, contain bool) (o RunOutcome) {
	if contain {
		defer func() {
			if r := recover(); r != nil {
				o = RunOutcome{Err: &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
	}
	o.Res, o.Err = RunCachedCtx(ctx, rc)
	return o
}

// runAllOrdered is RunAll with streaming delivery: deliver is called once
// per cell, in input order, from the calling goroutine's control flow. A
// non-nil error from deliver cancels the cells that have not started and
// returns after the in-flight ones drain. With workers == 1 the loop is
// exactly the historical sequential sweep — same goroutine, same order,
// no pool.
func runAllOrdered(ctx context.Context, cfgs []RunConfig, workers int, deliver func(int, RunOutcome) error) error {
	return runAllOrderedOpt(ctx, cfgs, workers, false, deliver)
}

func runAllOrderedOpt(ctx context.Context, cfgs []RunConfig, workers int, contain bool, deliver func(int, RunOutcome) error) error {
	n := len(cfgs)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i, rc := range cfgs {
			var o RunOutcome
			if err := ctx.Err(); err != nil {
				o.Err = err
			} else {
				o = runOne(ctx, rc, contain)
			}
			if err := deliver(i, o); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	type completion struct {
		i int
		o RunOutcome
	}
	ch := make(chan completion, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var o RunOutcome
				if err := ctx.Err(); err != nil {
					o.Err = err
				} else {
					o = runOne(ctx, cfgs[i], contain)
				}
				ch <- completion{i, o}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	// Reorder completions into input order; deliver as soon as the next
	// expected index lands, so consumers stream without a global barrier.
	buf := make([]RunOutcome, n)
	ready := make([]bool, n)
	delivered := 0
	var derr error
	for c := range ch {
		buf[c.i], ready[c.i] = c.o, true
		for derr == nil && delivered < n && ready[delivered] {
			if err := deliver(delivered, buf[delivered]); err != nil {
				derr = err
				cancel() // stop scheduling new cells; drain the rest
			}
			delivered++
		}
	}
	return derr
}

// RunVerified runs every cell through the memoization cache at
// Workers() and returns the results in input order. A failed cell is an
// error, never a data point: a run error, a workload VerifyErr, or — on a
// cell with Oracle set — an OracleErr. The first failure in input order
// is returned and the cells not yet started are cancelled, so the error
// does not depend on the worker count. Every table and figure generator
// goes through it, so a correctness bug cannot silently become a
// (meaningless) performance number.
func RunVerified(cells []RunConfig) ([]*Result, error) {
	out := make([]*Result, len(cells))
	err := runAllOrdered(context.Background(), cells, Workers(), func(i int, o RunOutcome) error {
		rc := cells[i]
		system := rc.Backend
		if system == "" {
			system = rc.Mode.String()
		}
		switch {
		case o.Err != nil:
			return o.Err
		case o.Res.VerifyErr != nil:
			return fmt.Errorf("harness: %s (%s, %d threads): verify failed: %w",
				rc.Benchmark, system, rc.Threads, o.Res.VerifyErr)
		case rc.Oracle && o.Res.OracleErr != nil:
			return fmt.Errorf("harness: %s (%s, %d threads): oracle: %w",
				rc.Benchmark, system, rc.Threads, o.Res.OracleErr)
		}
		out[i] = o.Res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
