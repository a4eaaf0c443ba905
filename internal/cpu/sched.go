package cpu

import "specrun/internal/isa"

// This file is the event-driven backend scheduler: wakeup-select issue, an
// age-indexed store queue, and push-based writeback.  It replaces the
// polling scheduler (sched_poll.go, retained as the cycle-exact reference
// the equivalence tests compare against) without changing a single
// observable cycle:
//
//   - Wakeup lists instead of operand polling.  Each in-flight producer
//     carries an intrusive waiter list (uop.waiters); when it completes in
//     writeback it writes its result directly into consumers' operand slots
//     and moves fully-ready consumers into the age-ordered ready queue.  The
//     select loop therefore scans ready uops only — a uop waiting on an
//     operand is in no queue at all, just in the ROB and its producers'
//     waiter lists.
//   - Replay queue.  A ready uop that fails to issue for a non-operand
//     reason — functional-unit contention stays in the ready queue (the
//     select loop is the arbiter); memory-ordering blocks (LoadBlockedSQ),
//     SL-cache gating and ROB-head serialization move to the replay queue
//     with the condition recorded (uop.replayWhy) — is re-selected the next
//     cycle.  Every replay condition is deliberately re-evaluated per cycle:
//     the clearing events can occur on any cycle, and the blocked counters
//     are defined per attempt, so coarser wakeups would change observable
//     statistics.
//   - Age-indexed store-queue disambiguation.  The SQ is a true age-ordered
//     ring (dispatch pushes the back, commit pops the front, squash pops the
//     back), with an oldest-unknown-address watermark giving the "blocked on
//     unknown store address" answer in O(1), and per-line intrusive store
//     chains (sqLineIdx) so a load only examines stores that write a line it
//     reads — O(matching stores) instead of O(SQ) per attempt.
//
// Squash safety: waiter entries and the queues hold bare *uop pointers into
// the recycling pool, so every deferred reference validates seq (waiters) or
// is compacted before the two-phase dead lists recycle the uop (ready,
// replay, inflight — all compacted every step), and the SQ ring and line
// chains are maintained eagerly (unlinked the moment a store leaves the
// pipeline).

// issuePhase selects up to IssueWidth ready uops, oldest first, subject to
// functional-unit availability, and executes them (computing results and
// completion times; memory operations access the timing hierarchy here, so
// wrong-path and runahead loads leave real cache state behind).
func (c *CPU) issuePhase(now uint64) {
	if c.pollSched {
		c.issuePhasePoll(now)
		return
	}
	// Re-wake last cycle's replayed uops: merge them (age-ordered) back into
	// the ready queue before selecting.  (The per-cycle FU counts need no
	// clearing here: consumeFU batch-resets them on the first claim of each
	// cycle, keyed by fuStamp.)
	if len(c.replay) > 0 {
		c.mergeReplay()
	}
	issued := 0
	out := c.ready[:0]
	for idx := 0; idx < len(c.ready); idx++ {
		u := c.ready[idx]
		if u.squashed { // may be marked mid-phase by an INV-branch barrier
			u.inReady = false
			continue
		}
		if issued >= c.cfg.IssueWidth {
			out = append(out, u)
			continue
		}
		pd := u.pd
		if pd.Serializing && c.rob.front() != u {
			// RDTSC/FENCE execute at the ROB head only.
			u.replayWhy = ReplayROBHead
			c.replay = append(c.replay, u)
			if c.traceFn != nil {
				c.traceEmit(TraceReplay, u)
			}
			continue
		}
		fu := pd.FU
		if !c.fuAvailable(fu, now) {
			out = append(out, u) // lost select arbitration; compete again next cycle
			continue
		}
		if !c.execute(u, now) {
			// Memory-ordering or SL-cache gating (execute recorded which via
			// replayWhy): retry next cycle.
			c.replay = append(c.replay, u)
			if c.traceFn != nil {
				c.traceEmit(TraceReplay, u)
			}
			continue
		}
		c.consumeFU(fu, now, uint64(pd.Lat))
		u.stage = stIssued
		u.inReady = false
		if u.inIQ {
			u.inIQ = false
			c.iqUsed--
		}
		c.inflight = insertBySeq(c.inflight, u)
		c.nextDone = min(c.nextDone, u.doneAt)
		if u.isStore() && u.addrValid {
			c.sqLink(u)
			if u.seq == c.sqUnknown {
				c.recomputeSQUnknown()
			}
		}
		issued++
		c.stats.Issued++
		if c.traceFn != nil {
			c.traceEmit(TraceIssue, u)
		}
	}
	c.ready = out
}

// mergeReplay folds the replay queue back into the ready queue.  Both are
// age-ordered, so this is a linear two-way merge (through the scratch
// buffer, reusing its storage cycle over cycle).
func (c *CPU) mergeReplay() {
	merged := c.readyScratch[:0]
	i, j := 0, 0
	for i < len(c.ready) && j < len(c.replay) {
		if c.ready[i].seq < c.replay[j].seq {
			merged = append(merged, c.ready[i])
			i++
		} else {
			merged = append(merged, c.replay[j])
			j++
		}
	}
	merged = append(merged, c.ready[i:]...)
	merged = append(merged, c.replay[j:]...)
	c.readyScratch = c.ready[:0]
	c.ready = merged
	c.replay = c.replay[:0]
}

// writebackPhase completes executed uops whose latency has elapsed, waking
// dependants and resolving control flow.  The oldest mispredicted control
// instruction triggers recovery: younger uops are squashed, the RAT and
// predictor state are restored from the instruction's checkpoints, and
// fetch is redirected.  In-flight cache fills survive — that persistence is
// the Spectre/SPECRUN channel.
//
// The in-flight list is kept age-ordered by insertion (issue inserts by
// seq), so oldest-first processing needs no per-cycle sort, and recoveries
// mid-scan only ever squash entries not yet reached.  The compaction also
// records the earliest pending completion in nextDone for the idle check.
func (c *CPU) writebackPhase(now uint64) {
	if c.pollSched {
		c.writebackPhasePoll(now)
		return
	}
	c.nextDone = ^uint64(0)
	if len(c.inflight) == 0 {
		return
	}
	out := c.inflight[:0]
	for _, u := range c.inflight {
		if u.squashed {
			continue
		}
		if u.stage != stIssued {
			// Completed outside writeback — the runahead stalling load is
			// poisoned to stDone by enterRunahead (which wakes its waiters
			// itself).  Drop it here exactly as the polling reference's
			// compact does: commit is about to recycle it, and a retained
			// pointer would re-enter this list as a stale duplicate once the
			// pool hands it out again.
			continue
		}
		if u.doneAt > now {
			out = append(out, u)
			c.nextDone = min(c.nextDone, u.doneAt)
			continue
		}
		u.stage = stDone
		if c.traceFn != nil {
			c.traceEmit(TraceComplete, u)
		}
		c.wakeWaiters(u, now)
		if !u.addrValid && u.isStore() && u.seq == c.sqUnknown {
			// An INV-address store completing stops blocking younger loads
			// (it never writes); advance the watermark past it.
			c.recomputeSQUnknown()
		}
		if u.isCtl() && !u.unresolved && c.mispredicted(u) {
			// Oldest-first processing guarantees entries already completed
			// this cycle are older than u and survive the squash.
			c.recover(u, now)
		}
	}
	c.inflight = out
}

// addWaiter registers (u, src) on producer p's wakeup list, drawing chunk
// storage from the CPU-level pool.
func (c *CPU) addWaiter(p, u *uop, src int8) {
	t := p.wTail
	if t == nil || t.n == len(t.ws) {
		var nc *waiterChunk
		if n := len(c.wchunkPool); n > 0 {
			nc = c.wchunkPool[n-1]
			c.wchunkPool = c.wchunkPool[:n-1]
		} else {
			nc = new(waiterChunk)
		}
		if t == nil {
			p.wHead = nc
		} else {
			t.next = nc
		}
		p.wTail = nc
		t = nc
	}
	t.ws[t.n] = waiter{u: u, seq: u.seq, src: src}
	t.n++
}

// dropWaiters returns a uop's waiter chunks to the pool.
func (c *CPU) dropWaiters(p *uop) {
	for ch := p.wHead; ch != nil; {
		nx := ch.next
		ch.n, ch.next = 0, nil
		c.wchunkPool = append(c.wchunkPool, ch)
		ch = nx
	}
	p.wHead, p.wTail = nil, nil
}

// wakeWaiters broadcasts a completed producer's result to its registered
// consumers: each live waiter's operand is captured, issue-gating operands
// decrement the consumer's pending count (hitting zero moves it into the
// ready queue), and a store's data operand completes the STD half of an
// already-issued split store.  Entries whose consumer was squashed — or
// recycled into a new uop, detected by the seq check — are skipped.
func (c *CPU) wakeWaiters(p *uop, now uint64) {
	for ch := p.wHead; ch != nil; ch = ch.next {
		for i := 0; i < ch.n; i++ {
			w := &ch.ws[i]
			cu := w.u
			if cu.seq != w.seq || cu.squashed {
				continue
			}
			o := &cu.srcs[w.src]
			if o.ready {
				continue
			}
			o.val, o.val2, o.inv = p.result, p.result2, p.resINV
			o.producer = nil
			o.ready = true
			if cu.pd.Kind == isa.KindStore && int(w.src) == cu.nsrc-1 {
				// STD half of a split store: if the STA half already issued,
				// the store completes one cycle after the datum arrives.
				if cu.dataPending {
					cu.storeVal, cu.storeVal2 = o.val, o.val2
					cu.storeINV = o.inv
					cu.dataPending = false
					cu.doneAt = now + 1
				}
				continue
			}
			cu.pendIssue--
			if cu.pendIssue == 0 && cu.stage == stDispatched && !cu.inReady {
				c.readyInsert(cu)
			}
		}
	}
	c.dropWaiters(p)
}

// readyPush appends a just-dispatched uop to the ready queue.  Dispatch
// hands out strictly increasing seqs, so the youngest uop always belongs at
// the back.
func (c *CPU) readyPush(u *uop) {
	u.inReady = true
	c.ready = append(c.ready, u)
}

// readyInsert places a woken uop into the ready queue at its age position.
func (c *CPU) readyInsert(u *uop) {
	u.inReady = true
	c.ready = insertBySeq(c.ready, u)
}

// insertBySeq inserts u into the seq-ascending slice s.  The common case
// (u younger than everything present) is a plain append.
func insertBySeq(s []*uop, u *uop) []*uop {
	i := len(s)
	for i > 0 && s[i-1].seq > u.seq {
		i--
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = u
	return s
}

// ---- age-indexed store queue ----

// sqLink threads a store whose address just resolved into the per-line
// disambiguation chains — one chain node per cache line the store writes
// (two when it crosses a line boundary).  Chains hold only live stores with
// valid addresses: commit, squash and Reset unlink eagerly, so loads never
// validate entries.
func (c *CPU) sqLink(u *uop) {
	size := u.pd.MemSize
	l0 := c.hier.LineAddr(u.addr)
	l1 := c.hier.LineAddr(u.addr + uint64(size) - 1)
	u.sqNodes[0].line = l0
	u.sqNLines = 1
	if l1 != l0 {
		u.sqNodes[1].line = l1
		u.sqNLines = 2
	}
	for k := int8(0); k < u.sqNLines; k++ {
		n := &u.sqNodes[k]
		n.u = u
		head := c.sqLineIdx[n.line]
		n.prev, n.next = nil, head
		if head != nil {
			head.prev = n
		}
		c.sqLineIdx[n.line] = n
	}
	u.sqLinked = true
}

// sqUnlink removes a store from its line chains (no-op if never linked).
func (c *CPU) sqUnlink(u *uop) {
	if !u.sqLinked {
		return
	}
	for k := int8(0); k < u.sqNLines; k++ {
		n := &u.sqNodes[k]
		if n.prev != nil {
			n.prev.next = n.next
		} else if n.next != nil {
			c.sqLineIdx[n.line] = n.next
		} else {
			delete(c.sqLineIdx, n.line)
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
		n.prev, n.next, n.u = nil, nil, nil
	}
	u.sqLinked = false
	u.sqNLines = 0
}

// storeAddrUnknown reports whether a store still blocks younger loads as
// "address unknown": its address has not resolved and it is not a completed
// INV-address store (which never writes).
func storeAddrUnknown(st *uop) bool {
	return !st.addrValid && !(st.stage == stDone && st.resINV)
}

// recomputeSQUnknown rescans the store-queue ring for the oldest store whose
// address is still unknown and resets the watermark (0 = none).  Called only
// on transitions — an address resolving, an INV-address store completing, or
// the watermark holder leaving the queue — so the scan amortises to O(1) per
// store.
func (c *CPU) recomputeSQUnknown() {
	for i := 0; i < c.sqr.len(); i++ {
		if st := c.sqr.at(i); storeAddrUnknown(st) {
			c.sqUnknown = st.seq
			return
		}
	}
	c.sqUnknown = 0
}

// scanSQ checks older stores for ordering hazards.  It returns the youngest
// fully-covering older store for forwarding, or blocked=true if any older
// store has an unknown address or partially overlaps.
//
// The watermark answers the unknown-address case in O(1): if the oldest
// unknown-address store is older than the load, the load is blocked; if it
// is younger (or there is none), every older store has a known address and
// only the chains of the lines the load reads need walking.  Chain order is
// arbitrary — the blocked/forward decision is order-independent: any older
// overlapping store that is not a data-ready full cover blocks, and among
// full covers the youngest forwards.  (The polling reference scans the whole
// queue oldest-first and stops at the first blocker; both formulations
// block on exactly the same condition, so the outcomes agree — pinned by
// the scheduler equivalence suite and the SQ corner tests.)
func (c *CPU) scanSQ(u *uop, size int) (fwd *uop, blocked bool) {
	if c.pollSched {
		return c.scanSQPoll(u, size)
	}
	if c.sqUnknown != 0 && c.sqUnknown < u.seq {
		return nil, true // an older store's address is unknown: conservative stall
	}
	l0 := c.hier.LineAddr(u.addr)
	l1 := c.hier.LineAddr(u.addr + uint64(size) - 1)
	for {
		for n := c.sqLineIdx[l0]; n != nil; n = n.next {
			st := n.u
			if st.seq >= u.seq {
				continue // younger store: no ordering constraint
			}
			stSize := st.pd.MemSize
			if st.addr+uint64(stSize) <= u.addr || u.addr+uint64(size) <= st.addr {
				continue // same line, disjoint bytes
			}
			if st.addr <= u.addr && st.addr+uint64(stSize) >= u.addr+uint64(size) && size <= 8 && st.stage == stDone {
				if fwd == nil || st.seq > fwd.seq {
					fwd = st // full cover, data ready: forward (youngest wins)
				}
				continue
			}
			if size == 16 && st.addr == u.addr && stSize == 16 && st.stage == stDone {
				if fwd == nil || st.seq > fwd.seq {
					fwd = st
				}
				continue
			}
			return nil, true // partial overlap or data not ready: wait
		}
		if l0 == l1 {
			return fwd, false
		}
		l0 = l1 // load crosses a line boundary: walk the second chain too
	}
}
