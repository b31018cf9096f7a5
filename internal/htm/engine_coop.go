package htm

import "iter"

// coopEngine is the cooperative single-goroutine engine: every simulated
// core is a resumable coroutine (iter.Pull), and one scheduler loop on
// the caller's goroutine resumes whichever core holds the token. The Go
// scheduler is never involved between events — a token handoff is a
// direct coroutine switch, and the common case (the holder keeps the
// token) is a single comparison with no switch at all.
//
// Hot path. While one core holds the token, every other core's clock is
// frozen — other cores only advance their clocks while *they* hold the
// token. The smallest key among the other runnable cores is therefore a
// constant for the duration of a tenure, so it is computed once per
// handoff (grant) and every subsequent sync by the holder is a single
// comparison: the holder keeps the token and its event batch continues,
// without any coroutine switch or O(cores) scan, unless its new time
// actually loses the virtual-time race. Events are thereby batched per
// token tenure: a tenure's whole run of events costs one switch in and
// one switch out, however long it is.
//
// Packed keys. Each core's state is one word, key[i] = clock<<keyIDBits |
// i for a runnable core and keyDone for a finished one, so the smallest
// key is exactly the pick rule — smallest virtual time, ties to the
// smallest core ID — and finished cores never win. grant's scan is a
// branch-free min over the keys: at 16 cores the cost of the old rescan
// was branch mispredictions on its data-dependent compares, not its O(n)
// bound, so a tournament tree, whose compares are just as branchy and
// serially dependent, measured no faster.
//
// Determinism. The pick rule is identical to refEngine's: smallest
// virtual time, ties to the smallest core ID, or the installed
// Scheduler's choice within its window. Decision points occur in the same
// order (start, every losing sync, every finish), so recorded schedules
// replay bit-identically across both engines.
type coopEngine struct {
	key     []uint64
	pending int

	// othersKey is the smallest key among the runnable cores other than
	// the token holder (keyDone when there is none). Recomputed once per
	// grant, read on every sync while sched == nil.
	othersKey uint64

	// sched, when non-nil, replaces the smallest-virtual-time rule with an
	// adversarial choice among the runnable cores inside the scheduler's
	// virtual-time window (see sched.go). cand/candT are reused scratch.
	sched Scheduler
	cand  []int
	candT []uint64

	// granted is the core that must run next; grant sets it before
	// control is transferred toward it (see dispatch).
	granted int
	// resume[i] switches into core i's coroutine until it yields or its
	// body returns; stop[i] releases the coroutine. park[i] is core i's
	// yield function, switching back to its resumer.
	resume []func() (struct{}, bool)
	stop   []func()
	park   []func(struct{}) bool
	// chained[i] marks core i as blocked inside a resume call (it handed
	// the token to a parked core by switching into it directly). The
	// suspended coroutines always form a single chain rooted at the run
	// loop; dispatch uses chained to tell whether the granted core can be
	// resumed directly (it is parked outside the chain) or control must
	// unwind to it (it is an ancestor in the chain).
	chained []bool
}

// Packed-key layout: the low keyIDBits bits hold the core ID (Config
// allows at most 32 cores), the rest the clock. A clock of 2^59 or more
// would shift out of the key and misorder events, and core 31 at 2^59-1
// would pack to keyDone, so sync refuses any clock at or above maxClock.
const (
	keyIDBits = 5
	keyIDMask = 1<<keyIDBits - 1
	keyDone   = ^uint64(0)
	maxClock  = 1<<(64-keyIDBits) - 1
)

// errClockRange is the panic value sync raises for a clock outside the
// packed-key range; RunChecked re-raises it in the caller's goroutine.
const errClockRange = "htm: virtual clock overflow: 2^59-1 cycles is beyond the engine's packed-key range"

func newCoopEngine(n int, sched Scheduler) *coopEngine {
	e := &coopEngine{
		key:       make([]uint64, n),
		pending:   n,
		othersKey: keyDone,
		sched:     sched,
	}
	for i := range e.key {
		e.key[i] = uint64(i) // every core starts at clock 0
	}
	return e
}

// minKey returns the smallest key, keyDone when every core has finished.
// The min builtin compiles to a conditional move, so the scan has no
// data-dependent branch.
func (e *coopEngine) minKey() uint64 {
	m := keyDone
	for _, k := range e.key {
		m = min(m, k)
	}
	return m
}

// min returns the non-done core with the smallest virtual time, or -1.
func (e *coopEngine) min() int {
	best := e.minKey()
	if best == keyDone {
		return -1
	}
	return int(best & keyIDMask)
}

// next returns the core to hand the token to: the minimum-time runnable
// core by default, or the installed scheduler's choice among the cores
// within its virtual-time window of the minimum.
func (e *coopEngine) next() int {
	best := e.min()
	if e.sched == nil || best == -1 {
		return best
	}
	e.cand, e.candT = e.cand[:0], e.candT[:0]
	window := e.sched.Window()
	bestT := e.key[best] >> keyIDBits
	for i, k := range e.key {
		if k == keyDone {
			continue
		}
		if t := k >> keyIDBits; window == 0 || t <= bestT+window {
			e.cand = append(e.cand, i)
			e.candT = append(e.candT, t)
		}
	}
	if len(e.cand) == 1 {
		return e.cand[0]
	}
	k := e.sched.Pick(e.cand, e.candT)
	if k < 0 || k >= len(e.cand) {
		k = ((k % len(e.cand)) + len(e.cand)) % len(e.cand)
	}
	return e.cand[k]
}

// grant hands the token to core id: the smallest key over the other
// runnable cores is recomputed for the fast path (the holder's own key is
// masked to keyDone for the scan instead of skipped by a branch), and the
// engine loop is told to resume id. Callers must have chosen id via
// next() (or the fast path's othersKey, which is provably the same
// choice).
func (e *coopEngine) grant(id int) {
	own := e.key[id]
	e.key[id] = keyDone
	e.othersKey = e.minKey()
	e.key[id] = own
	e.granted = id
}

// sync implements engine. The fast path is a single comparison of the
// holder's new key against the per-tenure constant othersKey (ties on
// time go to the smaller ID, which the key order encodes); losing the
// race selects the winner and transfers control toward it with as few
// coroutine switches as the chain permits.
func (e *coopEngine) sync(id int, t uint64) {
	if t >= maxClock {
		panic(errClockRange)
	}
	k := t<<keyIDBits | uint64(id)
	e.key[id] = k
	if e.sched == nil {
		if k < e.othersKey {
			return
		}
		// Fast path lost the race: the winner is, by the tie-break,
		// exactly the core holding the smallest other key.
		e.grant(int(e.othersKey & keyIDMask))
	} else {
		next := e.next()
		if next == id {
			return
		}
		e.grant(next)
	}
	e.dispatch(id)
}

// dispatch transfers control from core id toward the granted core and
// returns when id is granted again. A parked winner is resumed by a
// single direct coroutine switch — the common ping-pong handoff costs
// one switch, not a bounce through a central loop. A winner that is an
// ancestor in the chain (blocked in the resume call that eventually led
// here) is reached by yielding, which unwinds one chain level; each
// unwound frame re-enters its own dispatch loop and repeats the choice.
func (e *coopEngine) dispatch(id int) {
	for {
		w := e.granted
		if w == id {
			return
		}
		if e.chained[w] {
			// The winner is an ancestor: park until the token comes back.
			// Cores are only ever resumed when they hold the grant, so on
			// return granted == id.
			e.park[id](struct{}{})
			return
		}
		// The winner is parked (or not yet started): switch into it
		// directly, becoming part of the chain until it returns control.
		e.chained[id] = true
		_, alive := e.resume[w]()
		e.chained[id] = false
		if !alive {
			e.coreDone(w)
		}
	}
}

// coreDone marks core w's body as returned and hands the token onward.
// When the last body returns there is no next holder: every other
// coroutine has already unwound, so control is in the run loop, which
// observes pending == 0 and completes the simulation.
func (e *coopEngine) coreDone(w int) {
	e.key[w] = keyDone
	e.pending--
	if e.pending > 0 {
		e.grant(e.next())
	}
}

// run implements engine: it builds one coroutine per core and drives the
// whole simulation from this goroutine. A coroutine is resumed only when
// its core holds the token, so all simulation state keeps the exclusive-
// holder discipline without locks, channels, or extra goroutines.
func (e *coopEngine) run(m *Machine, bodies []func(*Core), panics []any) {
	n := len(bodies)
	e.resume = make([]func() (struct{}, bool), n)
	e.stop = make([]func(), n)
	e.park = make([]func(struct{}) bool, n)
	e.chained = make([]bool, n)
	for i, body := range bodies {
		c, body := m.cores[i], body
		next, stop := iter.Pull(func(yield func(struct{}) bool) {
			// The coroutine body runs lazily: the first resume — which is
			// the engine's first grant to this core — starts it, so no
			// initial park is needed.
			e.park[c.id] = yield
			// A panicking body must still hand back the token; the panic
			// value is re-raised in the caller's goroutine by RunChecked.
			defer func() {
				if r := recover(); r != nil {
					panics[c.id] = r
					if c.inTx {
						c.clearTx()
					}
				}
				c.stats.FinalClock = c.clock
			}()
			body(c)
			if c.inTx {
				panic("htm: thread body returned inside a transaction")
			}
		})
		e.resume[i] = next
		e.stop[i] = stop
	}
	defer func() {
		for _, stop := range e.stop {
			stop()
		}
	}()
	e.grant(e.next()) // start: hand the token to the first chosen core
	for e.pending > 0 {
		// Resume the granted core. Control comes back here only when the
		// directly resumed core's body returns — cores hand the token
		// among themselves via dispatch without bouncing through this
		// loop — and a finished core necessarily still holds the grant.
		w := e.granted
		if _, alive := e.resume[w](); !alive {
			e.coreDone(w)
		}
	}
}
