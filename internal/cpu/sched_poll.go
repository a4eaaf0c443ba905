package cpu

import "specrun/internal/isa"

// This file is the polling backend scheduler — the implementation the
// event-driven scheduler (sched.go) replaced, kept as the cycle-exact
// reference oracle: issuePhasePoll re-scans the whole issue queue and
// re-polls every source operand every cycle, scanSQPoll walks every older
// store per load attempt, and writebackPhasePoll re-sorts the in-flight
// list and polls split-store data operands.  The scheduler equivalence
// suite runs randomized programs under both schedulers and requires
// identical Stats and commit streams cycle for cycle; any divergence is a
// bug in the event-driven bookkeeping.
//
// A polling-reference machine also steps every cycle: Run's idle skip
// (sched_skip.go) is off for it on purpose, so the same suite is the skip's
// oracle — a jump over a cycle in which some phase could have acted, or a
// skipped cycle accounted wrongly, shows up as a divergence.
//
// SetPollingReference selects it.  It exists for differential testing and
// costs the hot loop nothing when disabled (one branch per phase).

// SetPollingReference switches the backend to the legacy polling scheduler
// (true) or the event-driven one (false, the default).  It must be called
// on an idle machine — freshly built or Reset, before any cycle has run —
// because the two schedulers track in-flight state differently.  The
// polling scheduler is retained purely as a differential-testing oracle.
func (c *CPU) SetPollingReference(on bool) {
	if c.cycle != 0 || c.rob.len() > 0 {
		panic("cpu: SetPollingReference on a machine that has already run")
	}
	c.pollSched = on
	if on && c.iq == nil {
		// The polling queues exist only here; event-scheduler machines (the
		// default everywhere) never pay for them.
		c.iq = make([]*uop, 0, c.cfg.IQSize)
		c.lq = make([]*uop, 0, c.cfg.LQSize)
		c.sq = make([]*uop, 0, c.cfg.SQSize)
	}
}

// issuePhasePoll selects up to IssueWidth ready uops, oldest first, by
// rescanning the entire issue queue and polling every source operand.
func (c *CPU) issuePhasePoll(now uint64) {
	c.iq = dropSquashed(c.iq)
	c.lq = dropSquashed(c.lq)
	c.sq = dropSquashed(c.sq)
	issued := 0
	for idx := 0; idx < len(c.iq) && issued < c.cfg.IssueWidth; idx++ {
		u := c.iq[idx]
		if u.squashed { // may be marked mid-phase by an INV-branch barrier
			continue
		}
		// Stores issue as soon as their address operands are ready (split
		// store-address/store-data µops, as in real cores): younger loads
		// can then disambiguate against them instead of serialising behind
		// the store's data dependence.
		if u.pd.Kind == isa.KindStore {
			if !c.srcsReadyTo(u, u.nsrc-1) {
				continue
			}
		} else if !c.srcsReady(u) {
			continue
		}
		if u.pd.Serializing && c.rob.front() != u {
			continue // RDTSC/FENCE execute at the ROB head only
		}
		fu := u.pd.FU
		if !c.fuAvailable(fu, now) {
			continue
		}
		if !c.execute(u, now) {
			// Memory-ordering or SL-cache gating: retry next cycle.  (The
			// polling scheduler has no replay queue; the reason execute
			// recorded in replayWhy matches what the event-driven scheduler
			// would have tagged its TraceReplay with.)
			if c.traceFn != nil {
				c.traceEmit(TraceReplay, u)
			}
			continue
		}
		c.consumeFU(fu, now, uint64(u.pd.Lat))
		u.stage = stIssued
		c.inflight = append(c.inflight, u)
		c.iq = append(c.iq[:idx], c.iq[idx+1:]...)
		idx--
		issued++
		c.stats.Issued++
		if c.traceFn != nil {
			c.traceEmit(TraceIssue, u)
		}
	}
}

// writebackPhasePoll completes executed uops whose latency has elapsed,
// re-sorting the in-flight list each cycle and polling split-store data
// operands; dependants learn of completions by polling in the next issue
// phase.
func (c *CPU) writebackPhasePoll(now uint64) {
	if len(c.inflight) == 0 {
		return
	}
	sortBySeq(c.inflight)
	for _, u := range c.inflight {
		if u.squashed {
			continue
		}
		// STD half of a split store: capture the data once it arrives.
		if u.dataPending && u.stage == stIssued && c.srcsReadyTo(u, u.nsrc) {
			data := u.srcs[u.nsrc-1]
			u.storeVal, u.storeVal2 = data.val, data.val2
			u.storeINV = data.inv
			u.dataPending = false
			u.doneAt = now + 1
		}
		if u.stage != stIssued || u.doneAt > now {
			continue
		}
		u.stage = stDone
		if c.traceFn != nil {
			c.traceEmit(TraceComplete, u)
		}
		if u.isCtl() && !u.unresolved && c.mispredicted(u) {
			// Oldest-first processing guarantees entries already completed
			// this cycle are older than u and survive the squash.
			c.recover(u, now)
		}
	}
	c.inflight = compact(c.inflight, func(u *uop) bool {
		return !u.squashed && u.stage == stIssued
	})
}

// scanSQPoll checks all older stores for ordering hazards by walking the
// whole store queue oldest-first.  It returns the youngest fully-covering
// older store for forwarding, or blocked=true if any older store has an
// unknown address or partially overlaps.
func (c *CPU) scanSQPoll(u *uop, size int) (fwd *uop, blocked bool) {
	for _, st := range c.sq {
		if st.seq >= u.seq {
			break
		}
		if st.squashed {
			continue
		}
		if !st.addrValid {
			if st.stage == stDone && st.resINV {
				continue // runahead INV-address store: never writes
			}
			return nil, true // address unknown: conservative stall
		}
		stSize := st.pd.MemSize
		if st.addr+uint64(stSize) <= u.addr || u.addr+uint64(size) <= st.addr {
			continue // no overlap
		}
		if st.addr <= u.addr && st.addr+uint64(stSize) >= u.addr+uint64(size) && size <= 8 && st.stage == stDone {
			fwd = st // full cover, data ready: forward (youngest wins)
			continue
		}
		if size == 16 && st.addr == u.addr && stSize == 16 && st.stage == stDone {
			fwd = st
			continue
		}
		return nil, true // partial overlap or data not ready: wait
	}
	return fwd, false
}
