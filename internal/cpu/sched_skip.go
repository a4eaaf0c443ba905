package cpu

import "specrun/internal/isa"

// This file is Run's idle skip.  Memory-bound runs spend most cycles with
// every phase waiting on one future event: a fill completing, a fetch stall
// ending, a uop clearing the front-end delay, the runahead exit.  Such a
// cycle changes nothing but a few per-cycle counters, so Run jumps the clock
// straight to the next event and accounts the skipped cycles in bulk.  The
// polling reference scheduler never skips; the scheduler equivalence suite
// therefore checks the skip cycle for cycle.

// skipTarget returns the cycle Run may jump to from the current one: the
// next cycle at which any phase can act (idleUntil), capped at limit and at
// the cycle the deadlock watchdog fires, so ErrMaxCycles and ErrDeadlock
// report the cycles stepping would.  A result not past c.cycle means the
// current cycle must be stepped.
func (c *CPU) skipTarget(limit uint64) uint64 {
	if c.pollSched {
		return 0
	}
	next := c.idleUntil(c.cycle)
	if next == 0 {
		return 0
	}
	return min(next, limit, c.lastProgress+progressWindow+1)
}

// idleUntil reports whether cycle now is idle — no phase can act in it — and
// if so returns the earliest later cycle at which one might (0 when now is
// not idle).  The state idleness depends on holds still until that cycle, so
// every cycle in between is idle too.  Idle means all of:
//
//   - nothing to select (ready and replay empty), nothing squashed awaiting
//     recycling, and nothing dispatched last cycle (runahead entry reads it);
//   - no runahead exit due and no in-flight completion due;
//   - the ROB head can neither commit nor trigger runahead entry;
//   - fetch is blocked, stalled, behind a SkipINVBranch or FENCE barrier, or
//     facing a full buffer;
//   - the fetch-buffer front is still in the front end or held back by a
//     resource only a commit or an issue frees.
func (c *CPU) idleUntil(now uint64) uint64 {
	if len(c.ready) != 0 || len(c.replay) != 0 || len(c.deadNew) != 0 || len(c.deadOld) != 0 ||
		c.dispatchedPrev != 0 || c.nextDone <= now {
		return 0
	}
	next := c.nextDone
	if c.mode == ModeRunahead {
		if c.ra.stallDone <= now {
			return 0
		}
		next = min(next, c.ra.stallDone)
	}

	// A completed head commits (stDone is only ever set at or after doneAt);
	// an uncompleted one may trigger runahead entry.
	if u := c.rob.front(); u != nil && (u.stage == stDone || c.runaheadDue(u, now)) {
		return 0
	}

	// The fetch stall also bounds the runahead-entry check's "front end
	// starved" term, so it caps the skip whatever else blocks fetch.
	if c.fetchStallUntil > now {
		next = min(next, c.fetchStallUntil)
	} else if !c.fetchBlocked && !(c.mode == ModeRunahead && c.ra.fetchBarrier) && !c.frontQ.full() {
		return 0
	}

	if u := c.frontQ.front(); u != nil {
		switch {
		case u.dispatchable > now:
			next = min(next, u.dispatchable)
		case c.dispatchBlocked(u):
		case u.pd.Kind == isa.KindFence && c.mode == ModeRunahead && c.ra.fetchBarrier && c.fetchBlocked:
			// The runahead FENCE barrier is already up; dispatch would only
			// raise it again.
		default:
			return 0
		}
	}
	return next
}

// skipTo advances the clock from the current, idle cycle to target,
// accounting the skipped cycles as stepping them would have: runahead and
// ROB-full cycle counts, the stall-window high-water mark (constant over an
// idle stretch, so one update covers it) and a sampler tick at every
// multiple of the sampling interval.
func (c *CPU) skipTo(target uint64) {
	now := c.cycle
	n := target - now
	if c.mode == ModeRunahead {
		c.stats.RunaheadCycles += n
	}
	if c.rob.full() {
		c.stats.ROBFullCycles += n
	}
	c.trackStallWindow(now)
	if c.sampleFn != nil && c.sampleEvery != 0 {
		for c.cycle = now + (c.sampleEvery-now%c.sampleEvery)%c.sampleEvery; c.cycle < target; c.cycle += c.sampleEvery {
			c.sampleTick()
		}
	}
	c.cycle = target
}
