package htm

import (
	"testing"

	"repro/internal/mem"
)

// TestEngineGlobalOrderByVirtualTime: across many cores with staggered
// start offsets, globally visible events must occur in nondecreasing
// virtual-time order (ties broken by core ID).
func TestEngineGlobalOrderByVirtualTime(t *testing.T) {
	const cores = 8
	m := New(smallConfig(cores))
	type ev struct {
		time uint64
		core int
	}
	var log []ev
	addrs := make([]mem.Addr, cores)
	for i := range addrs {
		addrs[i] = m.Alloc.AllocLines(1)
	}
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			c.SpinWait(uint64(tid*7), WaitBackoff) // desynchronize
			for k := 0; k < 20; k++ {
				// A zero-length wait is a pure synchronization point; the
				// engine only lets the minimum-time core proceed, so times
				// observed here must be globally nondecreasing.
				c.SpinWait(0, WaitBackoff)
				log = append(log, ev{c.Now(), c.ID()})
				c.Store(0x10, 1, addrs[tid], uint64(k))
				c.Compute(10 + tid)
			}
		}
	}
	m.Run(bodies)
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.time > b.time {
			t.Fatalf("event %d out of order: core %d @%d then core %d @%d",
				i, a.core, a.time, b.core, b.time)
		}
		if a.time == b.time && a.core > b.core {
			t.Fatalf("tie at %d broken against core order: %d before %d",
				a.time, a.core, b.core)
		}
	}
}

// TestEngineSingleCoreNoHandoff: one core never blocks on the engine.
func TestEngineSingleCoreNoHandoff(t *testing.T) {
	m := New(smallConfig(1))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){func(c *Core) {
		for i := 0; i < 1000; i++ {
			c.Store(0x10, 1, a, uint64(i))
		}
	}})
	if got := m.Mem.Load(a); got != 999 {
		t.Fatalf("final = %d", got)
	}
}

// TestEngineEarlyFinishers: cores finishing at wildly different times
// must not wedge the remaining ones.
func TestEngineEarlyFinishers(t *testing.T) {
	const cores = 6
	m := New(smallConfig(cores))
	a := m.Alloc.AllocLines(1)
	done := make([]bool, cores)
	bodies := make([]func(*Core), cores)
	for i := range bodies {
		tid := i
		bodies[i] = func(c *Core) {
			for k := 0; k < (tid+1)*10; k++ {
				c.NTLoad(a)
				c.Compute(5)
			}
			done[tid] = true
		}
	}
	m.Run(bodies)
	for i, d := range done {
		if !d {
			t.Fatalf("core %d never finished", i)
		}
	}
	s := m.Stats()
	if s.PerCore[0].FinalClock >= s.PerCore[cores-1].FinalClock {
		t.Fatal("shortest thread should finish earliest in virtual time")
	}
}

// TestEngineIdleCoreDoesNotGateOthers: a core that stops issuing events
// (finished) must not delay the others' progress at all.
func TestEngineIdleCoreDoesNotGateOthers(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Alloc.AllocLines(1)
	b := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) { c.Store(0x1, 1, a, 1) }, // finishes immediately
		func(c *Core) {
			for i := 0; i < 500; i++ {
				c.Store(0x2, 2, b, uint64(i))
				c.Compute(20)
			}
		},
	})
	if m.Mem.Load(a) != 1 || m.Mem.Load(b) != 499 {
		t.Fatal("state wrong after early finisher")
	}
}

// TestFewerBodiesThanCores: Run with a subset of cores works and only
// those cores accumulate stats.
func TestFewerBodiesThanCores(t *testing.T) {
	m := New(smallConfig(8))
	a := m.Alloc.AllocLines(1)
	m.Run([]func(*Core){
		func(c *Core) { c.Store(0x1, 1, a, 5) },
		func(c *Core) { c.NTLoad(a) },
	})
	s := m.Stats()
	for i := 2; i < 8; i++ {
		if s.PerCore[i].Uops != 0 {
			t.Fatalf("unused core %d executed work", i)
		}
	}
}

// TestTooManyBodiesPanics guards the thread/core contract.
func TestTooManyBodiesPanics(t *testing.T) {
	m := New(smallConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(make([]func(*Core), 3))
}

// TestRunEmptyBodies: zero threads is a no-op.
func TestRunEmptyBodies(t *testing.T) {
	m := New(smallConfig(2))
	m.Run(nil)
	if m.Stats().Makespan != 0 {
		t.Fatal("empty run advanced time")
	}
}

// TestEngineClockRangePanics: a clock that no longer fits the engine's
// packed key (clock<<5 | core ID) must stop the run with the engine's
// named panic, re-raised by RunChecked, instead of wrapping to a small
// key and running ahead of its peers. 2^59-1 is covered too: for core 31
// it would pack to the finished-core sentinel.
func TestEngineClockRangePanics(t *testing.T) {
	for _, clock := range []uint64{1<<59 - 1, 1<<59 + 5} {
		const cores = 32
		m := New(smallConfig(cores))
		a := m.Alloc.AllocLines(1)
		type ev struct {
			time uint64
			core int
		}
		var log []ev
		bodies := make([]func(*Core), cores)
		for i := range bodies {
			bodies[i] = func(c *Core) {
				for k := 0; k < 20; k++ {
					if c.ID() == cores-1 && k == 10 {
						c.SpinWait(clock-c.Now(), WaitBackoff) // must panic
					}
					t0 := c.Now()
					c.NTLoad(a) // serialized at t0
					log = append(log, ev{t0, c.ID()})
					c.Compute(10)
				}
			}
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			return m.RunChecked(bodies)
		}()
		if got != errClockRange {
			t.Fatalf("clock %#x: RunChecked = %v, want panic %q", clock, got, errClockRange)
		}
		for i := 1; i < len(log); i++ {
			if a, b := log[i-1], log[i]; a.time > b.time {
				t.Fatalf("clock %#x: event %d out of order: core %d @%d then core %d @%d",
					clock, i, a.core, a.time, b.core, b.time)
			}
		}
		for _, e := range log {
			if e.core == cores-1 && e.time >= clock {
				t.Fatalf("clock %#x: core %d ran an event at %d past the range", clock, e.core, e.time)
			}
		}
	}
}
