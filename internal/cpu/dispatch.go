package cpu

import (
	"specrun/internal/isa"
	"specrun/internal/runahead"
)

// dispatchPhase renames and dispatches up to DispatchWidth uops per cycle
// from the front buffer into the ROB, issue queue and load/store queues,
// subject to the Table 1 resource limits.  NOPs consume only a ROB entry —
// the property §5.3 of the paper uses to measure the transient window.
func (c *CPU) dispatchPhase(now uint64) {
	for n := 0; n < c.cfg.DispatchWidth && c.frontQ.len() > 0; n++ {
		u := c.frontQ.front()
		if u.dispatchable > now || c.dispatchBlocked(u) {
			return
		}
		k := u.pd.Kind

		// During runahead mode a FENCE is a speculation barrier: the machine
		// does not pre-execute past it (prefetching loads across a memory
		// fence would violate its ordering intent), so runahead stops here
		// until the episode ends.
		if k == isa.KindFence && c.mode == ModeRunahead {
			c.ra.fetchBarrier = true
			c.fetchBlocked = true
			return
		}

		if c.dropsPRE(u) {
			c.frontQ.popFront()
			c.dropPRE(u, now)
			continue
		}

		needIQ := needsIQ(k)
		c.claimPRF(u)
		c.rename(u)
		c.rob.push(u)
		c.frontQ.popFront()
		c.stats.Dispatched++
		c.dispatchedNow++
		if c.traceFn != nil {
			c.traceEmit(TraceDispatch, u)
		}
		if c.mode == ModeRunahead && u.seq > c.ra.maxSeq {
			c.ra.maxSeq = u.seq
		}
		if needIQ {
			if c.pollSched {
				c.iq = append(c.iq, u)
			} else {
				u.inIQ = true
				c.iqUsed++
				if u.pendIssue == 0 {
					c.readyPush(u) // all issue-gating operands captured at rename
				}
			}
		} else {
			// NOP / FENCE / HALT complete without backend resources.
			u.stage = stDone
			u.doneAt = now
			if c.traceFn != nil {
				c.traceEmit(TraceComplete, u)
			}
		}
		if u.isLoad() {
			if c.pollSched {
				c.lq = append(c.lq, u)
			} else {
				c.lqUsed++
			}
		}
		if u.isStore() {
			if c.pollSched {
				c.sq = append(c.sq, u)
			} else {
				c.sqr.push(u)
				if c.sqUnknown == 0 {
					c.sqUnknown = u.seq // youngest store; watermark keeps the oldest
				}
			}
		}
	}
}

// dispatchBlocked reports whether u, the oldest fetch-buffer uop, is held
// back by a resource that only a commit or an issue frees: a full ROB, a
// FENCE waiting for the ROB to drain (FENCE serialises: in normal mode it
// dispatches only into an empty ROB), or a full IQ, LQ, SQ or physical
// register file.  A runahead-mode FENCE and a precise-runahead drop are not
// resource stalls; dispatchPhase acts on them.  It changes no state, so the
// idle check can ask it too.
func (c *CPU) dispatchBlocked(u *uop) bool {
	k := u.pd.Kind
	switch {
	case c.rob.full():
		return true
	case k == isa.KindFence:
		return c.mode == ModeNormal && !c.rob.empty()
	case c.dropsPRE(u):
		return false
	}
	return needsIQ(k) && c.iqLen() >= c.cfg.IQSize ||
		u.isLoad() && c.lqLen() >= c.cfg.LQSize ||
		u.isStore() && c.sqLen() >= c.cfg.SQSize ||
		!c.prfFree(u)
}

// dropsPRE reports whether precise runahead drops u at dispatch: non-slice
// compute is dropped and its destination poisoned; loads, stores and
// control always execute.
func (c *CPU) dropsPRE(u *uop) bool {
	return c.mode == ModeRunahead && c.cfg.Runahead.Kind == runahead.KindPrecise &&
		u.pd.Kind == isa.KindALU && !u.pd.Serializing && !c.rdt.InSlice(u.pc)
}

// needsIQ reports whether uops of kind k wait in the issue queue; NOP,
// FENCE and HALT complete at dispatch without backend resources.
func needsIQ(k isa.Kind) bool {
	return !(k == isa.KindNop || k == isa.KindFence || k == isa.KindHalt)
}

// iqLen/lqLen/sqLen report backend queue occupancy under whichever scheduler
// is active (the event-driven one tracks counts; the polling reference keeps
// the queues as slices).
func (c *CPU) iqLen() int {
	if c.pollSched {
		return len(c.iq)
	}
	return c.iqUsed
}

func (c *CPU) lqLen() int {
	if c.pollSched {
		return len(c.lq)
	}
	return c.lqUsed
}

func (c *CPU) sqLen() int {
	if c.pollSched {
		return len(c.sq)
	}
	return c.sqr.len()
}

// rename captures ready source values (from the architectural state or
// completed producers) and records in-flight producers otherwise — under
// the event-driven scheduler, registering on each in-flight producer's
// waiter list so completion pushes the value here instead of this uop
// polling for it.  It then claims the destination mapping and, for control
// instructions, snapshots the RAT for recovery.
func (c *CPU) rename(u *uop) {
	pd := u.pd
	u.nsrc = int(pd.NSrc)
	isStoreKind := pd.Kind == isa.KindStore
	for i := 0; i < u.nsrc; i++ {
		r := pd.Srcs[i]
		o := &u.srcs[i]
		o.reg = r
		if p := c.rat.lookup(r); p != nil {
			if p.stage == stDone {
				o.val, o.val2, o.inv = p.result, p.result2, p.resINV
				o.ready = true
			} else {
				o.producer = p
				o.prodSeq = p.seq
				if !c.pollSched {
					c.addWaiter(p, u, int8(i))
					// A store's data operand (always last) does not gate
					// issue: the STA half issues on address operands alone.
					if !(isStoreKind && i == u.nsrc-1) {
						u.pendIssue++
					}
				}
			}
			continue
		}
		o.val, o.val2, o.inv, o.taint = c.arch.read(r)
		o.ready = true
	}
	u.dest = pd.Dest
	if u.dest != isa.NoReg && !u.dest.IsZero() {
		c.rat.set(u.dest, u)
	}
	if u.isCtl() {
		u.ratCP = c.snapshotRAT()
	}
}

// dropPRE implements precise runahead's dispatch filter: the uop occupies a
// ROB slot (for pseudo-retirement ordering) but consumes no issue queue,
// functional unit or physical register; its destination is poisoned.
func (c *CPU) dropPRE(u *uop, now uint64) {
	u.dest = u.pd.Dest
	if u.dest != isa.NoReg && !u.dest.IsZero() {
		c.rat.set(u.dest, u)
	}
	u.stage = stDone
	u.doneAt = now
	u.resINV = true
	c.rob.push(u)
	c.stats.Dispatched++
	c.dispatchedNow++
	c.stats.DroppedPRE++
	if c.traceFn != nil {
		// A dropped uop occupies a ROB slot but never issues: it dispatches
		// and completes (poisoned) in the same breath.
		c.traceEmit(TraceDispatch, u)
		c.traceEmit(TraceComplete, u)
	}
	if u.seq > c.ra.maxSeq {
		c.ra.maxSeq = u.seq
	}
}

// prfFree reports whether a physical register is free for the uop's
// destination, modelling the Table 1 rename resources (80 int / 40 fp /
// 40 xmm; the architectural registers are subtracted as permanently
// allocated).
func (c *CPU) prfFree(u *uop) bool {
	switch u.pd.DestClass {
	case isa.ClassInt:
		return u.pd.Dest.IsZero() || c.intPRFUsed < c.cfg.IntPRF-isa.NumIntRegs
	case isa.ClassFP:
		return c.fpPRFUsed < c.cfg.FPPRF-isa.NumFPRegs
	case isa.ClassVec:
		return c.vecPRFUsed < c.cfg.VecPRF-isa.NumVecRegs
	}
	return true
}

// claimPRF reserves the physical register prfFree found for the uop's
// destination.
func (c *CPU) claimPRF(u *uop) {
	switch u.pd.DestClass {
	case isa.ClassInt:
		if u.pd.Dest.IsZero() {
			return
		}
		c.intPRFUsed++
	case isa.ClassFP:
		c.fpPRFUsed++
	case isa.ClassVec:
		c.vecPRFUsed++
	default:
		return
	}
	u.prfClaimed = true
}

func (c *CPU) releasePRF(u *uop) {
	if !u.prfClaimed {
		return
	}
	u.prfClaimed = false
	switch u.pd.DestClass {
	case isa.ClassInt:
		c.intPRFUsed--
	case isa.ClassFP:
		c.fpPRFUsed--
	case isa.ClassVec:
		c.vecPRFUsed--
	}
}
