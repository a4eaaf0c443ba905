package cpu

import (
	"specrun/internal/isa"
	"specrun/internal/mem"
	"specrun/internal/runahead"
	"specrun/internal/secure"
)

// commitPhase retires up to CommitWidth completed uops from the ROB head.
// In normal mode retirement updates the committed architectural state; in
// runahead mode it pseudo-retires into the scratch state with INV/taint
// bits.  The phase also owns the runahead entry check: a load that missed to
// main memory and reached the ROB head switches the machine into runahead
// mode (Fig. 6 "Runahead Mode in").
func (c *CPU) commitPhase(now uint64) {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		u := c.rob.front()
		if u == nil {
			break
		}
		if u.stage != stDone || u.doneAt > now {
			c.maybeEnterRunahead(u, now)
			if u.stage != stDone || u.doneAt > now {
				break
			}
		}
		c.rob.popFront()
		if c.mode == ModeNormal {
			c.retire(u, now)
			if c.traceFn != nil {
				c.traceEmit(TraceCommit, u)
			}
		} else {
			c.pseudoRetire(u, now)
			if c.traceFn != nil {
				c.traceEmit(TracePseudoRetire, u)
			}
		}
		c.releasePRF(u)
		c.removeFromLSQ(u)
		// The uop is out of every queue (ROB popped, LSQ removed above, and
		// a committed uop is stDone so the issue/in-flight queues dropped it
		// when it completed); recycle it.  Remaining RAT or operand
		// references validate seq and fall back to the architectural state,
		// which retirement just updated.
		c.freeUOp(u)
		c.lastProgress = c.cycle
		if c.halted {
			return
		}
	}
	c.trackStallWindow(now)
}

// maybeEnterRunahead triggers runahead mode when the blocked ROB head is a
// load (or return) whose miss went to the trigger level (main memory by
// default) and the pipeline has genuinely halted behind it: the instruction
// window has filled, or the front end itself is starved (§2.1: "the
// instruction window fills up and halts the pipeline").  Entering earlier
// would discard in-flight work the baseline machine keeps, turning runahead
// into a net loss on windows that still have room.
func (c *CPU) maybeEnterRunahead(u *uop, now uint64) {
	if !c.runaheadDue(u, now) {
		return
	}
	if u.pc != c.raReentryPC {
		c.raReentryPC, c.raReentries = u.pc, 0
	}
	c.raReentries++
	c.enterRunahead(u, now)
}

// runaheadDue reports whether the blocked ROB head u triggers runahead entry
// at cycle now, re-entry cap included.  It changes no state, so the idle
// check can ask it too.
func (c *CPU) runaheadDue(u *uop, now uint64) bool {
	if c.mode != ModeNormal || c.cfg.Runahead.Kind == runahead.KindNone {
		return false
	}
	if !u.isLoad() || u.stage != stIssued || u.doneAt <= now {
		return false
	}
	if mem.Level(u.missLevel) < c.cfg.Runahead.TriggerLevel {
		return false
	}
	// "Halted" means dispatch made no progress last cycle — the window or a
	// backend resource (ROB, IQ, LQ/SQ, physical registers) has filled, or
	// the front end is starved — while work is waiting.
	halted := c.dispatchedPrev == 0 &&
		(c.frontQ.len() > 0 || c.fetchBlocked || now < c.fetchStallUntil)
	if !c.rob.full() && !halted {
		return false
	}
	return u.pc != c.raReentryPC || c.raReentries < maxRunaheadReentries
}

// maxRunaheadReentries caps back-to-back runahead entries on the same
// stalling load with no normal-mode commit in between.  A load whose miss is
// served in fewer cycles than an episode costs (an L2 hit on a machine that
// triggers at L2) otherwise enters runahead, exits, misses again and
// re-enters forever; every entry and exit counts as progress, so the
// deadlock watchdog never fires.  After the cap the load simply waits for
// its fill in normal mode.
const maxRunaheadReentries = 4

// trackStallWindow records the normal-mode in-flight high-water mark while a
// memory-stalled load blocks the ROB head: Fig. 10 case ① (N1 is bounded by
// the ROB size).
func (c *CPU) trackStallWindow(now uint64) {
	if c.mode != ModeNormal {
		return
	}
	head := c.rob.front()
	if head == nil || !head.isLoad() || head.stage != stIssued || head.doneAt <= now {
		return
	}
	if mem.Level(head.missLevel) != mem.LevelMem {
		return
	}
	if w := uint64(c.rob.len() - 1); w > c.stats.MaxStallWindow {
		c.stats.MaxStallWindow = w
	}
}

func (c *CPU) removeFromLSQ(u *uop) {
	if c.pollSched {
		if u.isLoad() {
			for i, x := range c.lq {
				if x == u {
					c.lq = append(c.lq[:i], c.lq[i+1:]...)
					break
				}
			}
		}
		if u.isStore() {
			for i, x := range c.sq {
				if x == u {
					c.sq = append(c.sq[:i], c.sq[i+1:]...)
					break
				}
			}
		}
		return
	}
	if u.isLoad() {
		c.lqUsed--
	}
	if u.isStore() {
		// In-order retirement: the committing store is the oldest live store,
		// i.e. the front of the age-ordered ring.
		st := c.sqr.popFront()
		if st != u {
			panic("cpu: committing store is not the store-queue front")
		}
		c.sqUnlink(st)
		if st.seq == c.sqUnknown {
			c.recomputeSQUnknown()
		}
	}
}

// retire commits one uop architecturally (normal mode).
func (c *CPU) retire(u *uop, now uint64) {
	pd := u.pd
	op := pd.Op
	c.stats.Committed++
	c.raReentries = 0

	if u.dest != isa.NoReg {
		c.arch.write(u.dest, u.result, u.result2, false, 0)
	}

	switch pd.Kind {
	case isa.KindStore, isa.KindCall, isa.KindCallR:
		size := int(pd.MemSize)
		c.memImg.Write(u.addr, min(size, 8), u.storeVal)
		if size == 16 {
			c.memImg.WriteU64(u.addr+8, u.storeVal2)
		}
		// Timing: the store drains to the L1 D-cache in the background.
		sres := c.hier.Access(mem.PortD, u.addr, now, true)
		if c.obsFn != nil {
			c.observe(ObsStore, u.pc, c.hier.LineAddr(u.addr), sres.Level)
		}
	case isa.KindFlush:
		c.hier.Flush(u.addr)
		c.sl.Remove(c.hier.LineAddr(u.addr))
		if c.obsFn != nil {
			c.observe(ObsFlush, u.pc, c.hier.LineAddr(u.addr), mem.LevelNone)
		}
	case isa.KindBranch:
		c.stats.CondBranches++
		c.bp.TrainCond(u.phtIdx, u.actualTaken)
		c.bp.CommitCond(u.actualTaken)
		if c.slActive {
			c.resolveScopes(u)
		}
	case isa.KindJumpR:
		c.bp.TrainBTB(u.pc, u.actualTarget)
	case isa.KindHalt:
		c.halted = true
	}
	switch pd.Kind {
	case isa.KindCall, isa.KindCallR:
		c.bp.CommitCall(u.pc + isa.InstBytes)
		if pd.Kind == isa.KindCallR {
			c.bp.TrainBTB(u.pc, u.actualTarget)
		}
	case isa.KindRet:
		c.bp.CommitRet()
	}

	// Learning structures, fed only for the variant that reads them: the
	// RDT drives precise runahead's dispatch filter, the strides vector
	// runahead's prefetches.
	switch c.cfg.Runahead.Kind {
	case runahead.KindPrecise:
		c.rdt.ObserveCommit(u.pc, u.inst)
	case runahead.KindVector:
		if pd.Kind == isa.KindLoad && u.addrValid {
			c.strides.Observe(u.pc, u.addr)
		}
	}

	if c.commitFn != nil {
		// Read the destination back from the committed state (not u.result)
		// so hardwired-zero semantics match the reference interpreter.
		v, v2, _, _ := c.arch.read(u.dest)
		c.commitFn(CommitRecord{
			Seq: c.stats.Committed - 1, PC: u.pc, Op: op,
			Dest: u.dest, Val: v, Val2: v2,
		})
	}
}

// pseudoRetire retires one uop into the runahead scratch state (runahead
// mode).  Results never reach committed state; stores go to the runahead
// cache; valid branches train the predictor as in normal mode, while
// INV-source branches stay unresolved — the SPECRUN window.
func (c *CPU) pseudoRetire(u *uop, now uint64) {
	pd := u.pd
	c.stats.PseudoRetired++

	sec := c.cfg.Secure.Enabled
	if sec {
		c.tracker.Observe(u.pc)
	}

	if u.dest != isa.NoReg {
		c.arch.write(u.dest, u.result, u.result2, u.resINV, 0)
	}

	switch pd.Kind {
	case isa.KindALU, isa.KindRDTSC:
		if sec && u.dest != isa.NoReg {
			c.propagateTaint(u)
		}
	case isa.KindLoad:
		if sec {
			c.tagLoad(u)
		}
	case isa.KindRet:
		// The committed GHR/RSB stay frozen at the entry checkpoint; only
		// the speculative fetch-side RSB advanced (at fetch time).
		if sec {
			c.tracker.Propagate(regID(isa.SP), regID(isa.SP))
		}
	case isa.KindStore, isa.KindCall, isa.KindCallR:
		if u.addrValid {
			size := int(pd.MemSize)
			c.raCache.Write(u.addr, min(size, 8), u.storeVal, u.storeINV)
			if size == 16 {
				c.raCache.Write(u.addr+8, 8, u.storeVal2, u.storeINV)
			}
		}
	case isa.KindBranch:
		c.stats.CondBranches++
		if u.unresolved {
			if sec {
				c.registerScope(u)
			}
		} else {
			// Valid branches resolve and train as in normal mode (§2.1),
			// but the committed GHR/RSB stay frozen at the entry checkpoint.
			c.bp.TrainCond(u.phtIdx, u.actualTaken)
		}
	case isa.KindJumpR:
		if !u.unresolved {
			c.bp.TrainBTB(u.pc, u.actualTarget)
		}
	}
}

// propagateTaint forwards register taint through an ALU op (secure mode).
func (c *CPU) propagateTaint(u *uop) {
	var ids [4]uint16
	n := 0
	for i := 0; i < u.nsrc; i++ {
		ids[n] = regID(u.srcs[i].reg)
		n++
	}
	c.tracker.Propagate(regID(u.dest), ids[:n]...)
}

// tagLoad assigns the Btag/IS tags of Fig. 12 to a pseudo-retired load and
// to its SL-cache entry, and taints the destination with the address taint.
func (c *CPU) tagLoad(u *uop) {
	var addrTaint secure.TaintSet
	for i := 0; i < u.nsrc; i++ {
		addrTaint = addrTaint.Union(c.tracker.TaintOf(regID(u.srcs[i].reg)))
	}
	tag, is := c.tracker.OnLoad(u.pc, addrTaint)
	if u.addrValid {
		c.sl.Tag(c.hier.LineAddr(u.addr), tag, is)
	}
	if u.dest != isa.NoReg {
		c.tracker.SetTaint(regID(u.dest), is)
	}
}

// registerScope opens a taint scope for an unresolved (INV-source) branch:
// its predicate registers become taint roots (the rX/rY of Fig. 12).
func (c *CPU) registerScope(u *uop) {
	u.scopeN = c.tracker.RegisterBranch(u.pc, u.inst.Target, u.predTaken,
		regID(u.inst.Rs1), regID(u.inst.Rs2))
}

// resolveScopes implements the branch-resolution arm of Algorithm 1: when a
// branch whose PC opened a scope during the last runahead episode commits,
// compare its real direction with the episode's prediction; correct
// predictions unlock promotion, mispredictions delete the related entries.
func (c *CPU) resolveScopes(u *uop) {
	for _, sc := range c.tracker.Scopes() {
		if sc.Resolved || sc.Start != u.pc {
			continue
		}
		sc.Resolved = true
		sc.Correct = u.actualTaken == sc.PredTaken
		if sc.Correct {
			c.resolvedOK[sc.N] = c.scopeEpoch
		} else {
			c.sl.DeleteRelated(sc.N, c.tracker.InnerOf)
		}
	}
	if c.sl.C() == 0 {
		c.slActive = false
	}
}

// enterRunahead checkpoints the architectural state, poisons the stalling
// load and switches to runahead mode (Fig. 6 "Runahead Mode in").
func (c *CPU) enterRunahead(stalling *uop, now uint64) {
	c.stats.RunaheadEpisodes++
	if c.debugRA != nil {
		c.debugRA("enter RA ep=%d cycle=%d pc=%#x seq=%d doneAt=%d robLen=%d",
			c.stats.RunaheadEpisodes, now, stalling.pc, stalling.seq, stalling.doneAt, c.rob.len())
	}
	c.ra = runaheadState{
		checkpoint:  c.arch,
		stallingPC:  stalling.pc,
		stallingSeq: stalling.seq,
		stallDone:   stalling.doneAt,
		episode:     c.stats.RunaheadEpisodes,
		maxSeq:      stalling.seq,
	}
	if tail := c.rob.len(); tail > 0 {
		c.ra.maxSeq = c.rob.at(tail - 1).seq
	}
	c.mode = ModeRunahead

	if c.cfg.Secure.Enabled {
		if c.tracker == nil {
			c.tracker = secure.NewTracker()
		} else {
			c.tracker.Reset()
		}
		c.sl.Clear()
		c.slActive = false
		c.scopeEpoch++ // empties the epoch-tagged resolvedOK set in O(1)
	}

	// The stalling load pseudo-retires immediately with an INV result; its
	// in-flight fill request keeps running and defines the exit time.  It
	// completes here rather than in writeback, so it wakes its dependants
	// itself (they observe the poisoned value this same cycle, exactly when
	// the polling scheduler's consumers would see stDone).
	c.poisonSlowLoad(stalling, now)
	stalling.stage = stDone
	stalling.doneAt = now
	if c.traceFn != nil {
		// The poison IS this load's completion: writeback skips stDone uops,
		// so the lifecycle event is emitted here.
		c.traceEmit(TraceComplete, stalling)
	}
	if !c.pollSched {
		c.wakeWaiters(stalling, now)
	}

	// Every other in-flight load still waiting on a distant fill is poisoned
	// the same way (Mutlu et al.: instructions dependent on outstanding
	// misses are invalidated at entry).  Waiting for them would stall
	// pseudo-retirement and collapse the episode's reach; their fills keep
	// running and still act as prefetches.
	slack := uint64(c.cfg.Mem.L1D.Latency + c.cfg.Mem.L2.Latency + 2)
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if u != stalling && u.isLoad() && u.stage == stIssued && u.doneAt > now+slack {
			c.poisonSlowLoad(u, now)
			u.doneAt = now + 1
		}
	}
	c.lastProgress = c.cycle
}

// poisonSlowLoad marks a load INV; a RET whose pop was poisoned additionally
// becomes an unresolved control instruction steered by its RSB prediction.
func (c *CPU) poisonSlowLoad(u *uop, now uint64) {
	u.resINV = true
	if u.isCtl() {
		u.unresolved = true
		u.actualTaken = true
		u.actualTarget = u.predTarget
	}
}

// exitRunahead restores the checkpoint and restarts normal execution at the
// stalling load (Fig. 6 "Runahead Mode out").  Prefetched lines — and, in
// secure mode, the SL cache — survive; everything else is discarded.
func (c *CPU) exitRunahead(now uint64) {
	reach := c.ra.maxSeq - c.ra.stallingSeq + 1
	if c.debugRA != nil {
		c.debugRA("exit RA cycle=%d reach=%d", now, reach)
	}
	c.stats.EpisodeReaches = append(c.stats.EpisodeReaches, reach)

	c.squashAll()
	c.arch = c.ra.checkpoint
	c.rat.reset()
	c.bp.SyncToCommitted()
	c.raCache.Clear()

	c.mode = ModeNormal
	c.fetchPC = c.ra.stallingPC
	c.fetchBlocked = false
	c.fetchStallUntil = now + uint64(c.cfg.Runahead.ExitPenalty)
	c.lastFetchLine = ^uint64(0)

	if c.cfg.Secure.Enabled {
		c.sl.PurgeUntagged()
		c.slActive = c.sl.C() > 0
	}
	c.lastProgress = c.cycle
}
