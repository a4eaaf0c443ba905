package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
)

// --- scheduler equivalence suite ---
//
// The event-driven scheduler (sched.go) must be cycle-for-cycle identical to
// the polling reference (sched_poll.go): same Stats (including Cycles,
// Issued, LoadBlockedSQ and SLWaits, which count per-cycle attempts), same
// committed instruction stream.  Only the event-driven machine takes Run's
// idle skip (sched_skip.go); the reference steps every cycle.  Any
// divergence is a wakeup/index bookkeeping bug or a skip over a cycle that
// was not idle.

// runBoth executes prog under both schedulers and returns (event, poll)
// machines plus their commit streams.
func runBothScheds(t *testing.T, cfg Config, prog *asm.Program, budget uint64) (ev, po *CPU, evRecs, poRecs []CommitRecord) {
	t.Helper()
	collect := func(poll bool) (*CPU, []CommitRecord) {
		c := New(cfg, prog)
		if poll {
			c.SetPollingReference(true)
		}
		var recs []CommitRecord
		c.SetCommitHook(func(r CommitRecord) { recs = append(recs, r) })
		if err := c.Run(budget); err != nil {
			t.Fatalf("run (poll=%v): %v", poll, err)
		}
		return c, recs
	}
	ev, evRecs = collect(false)
	po, poRecs = collect(true)
	return ev, po, evRecs, poRecs
}

// assertEquivalent compares full statistics and commit streams.
func assertEquivalent(t *testing.T, ev, po *CPU, evRecs, poRecs []CommitRecord) {
	t.Helper()
	if !reflect.DeepEqual(*ev.Stats(), *po.Stats()) {
		t.Fatalf("stats diverge:\n event: %+v\n  poll: %+v", *ev.Stats(), *po.Stats())
	}
	if len(evRecs) != len(poRecs) {
		t.Fatalf("commit stream length: event %d, poll %d", len(evRecs), len(poRecs))
	}
	for i := range evRecs {
		if evRecs[i] != poRecs[i] {
			t.Fatalf("commit %d diverges: event %+v, poll %+v", i, evRecs[i], poRecs[i])
		}
	}
}

func equivalenceConfigs() map[string]Config {
	tiny := DefaultConfig()
	tiny.ROBSize, tiny.IQSize, tiny.LQSize, tiny.SQSize = 48, 8, 6, 6
	tiny.IntPRF, tiny.FPPRF, tiny.VecPRF = 48+32, 40+16, 40+16
	secure := DefaultConfig()
	secure.Secure.Enabled = true
	skipinv := DefaultConfig()
	skipinv.Runahead.SkipINVBranch = true
	vector := DefaultConfig()
	vector.Runahead.Kind = runahead.KindVector
	precise := DefaultConfig()
	precise.Runahead.Kind = runahead.KindPrecise
	baseline := DefaultConfig()
	baseline.Runahead.Kind = runahead.KindNone
	// tiny-l2 is the difftest matrix's starved machine: a 32-entry window,
	// caches small enough to thrash, and runahead entry on L2 misses, which
	// are served faster than an episode costs.  On reentryCapSeeds loads keep
	// re-entering until maxRunaheadReentries stops them, the regime the
	// idle skip's runahead-entry check must get right.
	tinyL2 := DefaultConfig()
	tinyL2.ROBSize, tinyL2.IQSize, tinyL2.LQSize, tinyL2.SQSize = 32, 8, 6, 6
	tinyL2.IntPRF, tinyL2.FPPRF, tinyL2.VecPRF = 48, 24, 24
	tinyL2.FrontQ = 4
	tinyL2.Mem.L1I = mem.CacheConfig{Name: "L1I", Size: 4 << 10, Assoc: 2, Latency: 2}
	tinyL2.Mem.L1D = mem.CacheConfig{Name: "L1D", Size: 4 << 10, Assoc: 2, Latency: 2}
	tinyL2.Mem.L2 = mem.CacheConfig{Name: "L2", Size: 16 << 10, Assoc: 4, Latency: 8}
	tinyL2.Mem.L3 = mem.CacheConfig{Name: "L3", Size: 64 << 10, Assoc: 8, Latency: 32}
	tinyL2.Runahead.TriggerLevel = mem.LevelL2
	return map[string]Config{
		"default":  DefaultConfig(),
		"baseline": baseline,
		"tiny":     tiny,
		"tiny-l2":  tinyL2,
		"secure":   secure,
		"skipinv":  skipinv,
		"vector":   vector,
		"precise":  precise,
	}
}

func TestSchedulerEquivalenceRandomPrograms(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.Gadgets = true // dynamic store/load addresses stress the SQ index
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				prog := proggen.Generate(seed, opt)
				ev, po, er, pr := runBothScheds(t, cfg, prog, 20_000_000)
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					assertEquivalent(t, ev, po, er, pr)
				})
			}
		})
	}
}

// reentryCapSeeds are leak-campaign programs (proggen with a 64-byte secret
// region) on which tiny-l2 hits maxRunaheadReentries; without the cap they
// livelock in runahead.
var reentryCapSeeds = []int64{7006747, 16004922, 18004863}

func reentryCapProgram(seed int64) *asm.Program {
	opt := proggen.DefaultOptions()
	opt.SecretBytes = 64
	return proggen.Generate(seed, opt)
}

// The re-entry cap must engage identically under both schedulers.
func TestSchedulerEquivalenceReentryCap(t *testing.T) {
	cfg := equivalenceConfigs()["tiny-l2"]
	for _, seed := range reentryCapSeeds {
		prog := reentryCapProgram(seed)
		ev, po, er, pr := runBothScheds(t, cfg, prog, 20_000_000)
		assertEquivalent(t, ev, po, er, pr)
		c, capped := New(cfg, prog), false
		for !c.Halted() && c.cycle < 1_000_000 {
			c.step()
			capped = capped || c.raReentries >= maxRunaheadReentries
		}
		if !capped {
			t.Errorf("seed %d: the re-entry cap never engaged; the test lost its coverage", seed)
		}
	}
}

// A Reset machine must stay on its selected scheduler and remain equivalent.
func TestSchedulerEquivalenceAcrossReset(t *testing.T) {
	opt := proggen.DefaultOptions()
	a := proggen.Generate(101, opt)
	b := proggen.Generate(202, opt)
	cfg := DefaultConfig()
	run := func(c *CPU, prog *asm.Program) Stats {
		c.Reset(prog)
		if err := c.Run(20_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return *c.Stats()
	}
	ev := New(cfg, a)
	po := New(cfg, a)
	po.SetPollingReference(true)
	for _, prog := range []*asm.Program{a, b, a} {
		se, sp := run(ev, prog), run(po, prog)
		if !reflect.DeepEqual(se, sp) {
			t.Fatalf("stats diverge after reset:\n event: %+v\n  poll: %+v", se, sp)
		}
	}
}

// --- store-queue watermark / line-index corner cases ---

// sqProgram runs src under both schedulers and asserts equivalence plus a
// set of expected final register values.
func sqProgram(t *testing.T, cfg Config, src string, want map[int]uint64) {
	t.Helper()
	prog, err := asm.Parse("sq", src)
	if err != nil {
		t.Fatal(err)
	}
	ev, po, er, pr := runBothScheds(t, cfg, prog, testBudget)
	assertEquivalent(t, ev, po, er, pr)
	for r, v := range want {
		if got := ev.IntReg(r); got != v {
			t.Errorf("r%d = %#x, want %#x", r, got, v)
		}
	}
	if ev.Stats().LoadBlockedSQ == 0 {
		t.Error("expected the program to exercise LoadBlockedSQ, got 0 blocked attempts")
	}
}

// A load partially overlapped by an older store must stall behind it (no
// partial forwarding) and still read the merged bytes after retirement.
func TestSQPartialOverlapBlocks(t *testing.T) {
	sqProgram(t, noRunaheadConfig(), `
		.data 0x100000
		buf: .zero 64
		start:
		movi r1, buf
		movi r2, 0x1111222233334444
		st   [r1 + 0], r2       ; 8-byte store at buf
		movi r3, 0xaa
		stb  [r1 + 6], r3       ; overlaps one byte of the first store
		ld   r4, [r1 + 0]       ; partially covered by [r1+6]: must wait
		ldb  r5, [r1 + 6]       ; fully covered by the byte store: forwards
		halt`, map[int]uint64{
		4: 0x11aa222233334444,
		5: 0xaa,
	})
}

// A load whose bytes are disjoint from every older store in the same cache
// line must not block on them (the line chain filters by byte overlap), but
// an unknown-address store older than the load blocks it regardless of line.
func TestSQSameLineDisjointBytes(t *testing.T) {
	prog, err := asm.Parse("sq", `
		.data 0x100000
		buf: .zero 128
		start:
		movi r1, buf
		movi r2, 77
		st   [r1 + 0], r2
		st   [r1 + 8], r2
		ld   r3, [r1 + 16]      ; same line, disjoint bytes: free to issue
		ld   r4, [r1 + 8]       ; covered: forwards 77
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	ev, po, er, pr := runBothScheds(t, noRunaheadConfig(), prog, testBudget)
	assertEquivalent(t, ev, po, er, pr)
	if ev.IntReg(3) != 0 || ev.IntReg(4) != 77 {
		t.Fatalf("r3=%d r4=%d, want 0 and 77", ev.IntReg(3), ev.IntReg(4))
	}
}

// 16-byte stores forward whole or by lane; loads covered by the second lane
// must see lane 1 (the PR 3 fuzz regression), across both schedulers.
func TestSQVectorLaneEquivalence(t *testing.T) {
	prog, err := asm.Parse("sq", `
		.data 0x100000
		buf: .zero 64
		src: .u64 0x0102030405060708
		     .u64 0x1112131415161718
		start:
		movi r1, src
		movi r2, buf
		vld  v1, [r1 + 0]
		vst  [r2 + 0], v1
		ld   r3, [r2 + 0]       ; lane 0
		ld   r4, [r2 + 8]       ; lane 1 (must not forward zero)
		ldb  r5, [r2 + 9]       ; byte inside lane 1
		vld  v2, [r2 + 0]       ; 16-byte load forwards both lanes
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	ev, po, er, pr := runBothScheds(t, noRunaheadConfig(), prog, testBudget)
	assertEquivalent(t, ev, po, er, pr)
	if got := ev.IntReg(3); got != 0x0102030405060708 {
		t.Errorf("lane0 r3 = %#x", got)
	}
	if got := ev.IntReg(4); got != 0x1112131415161718 {
		t.Errorf("lane1 r4 = %#x", got)
	}
	if got := ev.IntReg(5); got != 0x17 {
		t.Errorf("lane-1 byte r5 = %#x", got)
	}
	if v := ev.VecReg(2); v[0] != 0x0102030405060708 || v[1] != 0x1112131415161718 {
		t.Errorf("v2 = %#x:%#x", v[0], v[1])
	}
}

// Wrong-path stores with unresolved addresses block younger wrong-path
// loads; the squash must tear the stores out of the ring, the line index and
// the watermark so correct-path execution proceeds and the machines agree.
func TestSQSquashTeardown(t *testing.T) {
	prog, err := asm.Parse("sq", `
		.data 0x100000
		flag: .u64 0
		buf:  .zero 256
		start:
		movi r1, buf
		movi r6, 21
		st   [r1 + 64], r6
		movi r2, flag
		movi r7, 100
	train:                          ; train the branch taken
		ld   r3, [r2 + 0]           ; flag = 0 -> branch taken
		bne  r3, r0, wrong
		addi r7, r7, -1
		bne  r7, r0, train
		movi r4, 1
		st   [r2 + 0], r4           ; flip the flag
		clflush [r2 + 0]            ; make the re-read slow to resolve
		ld   r3, [r2 + 0]
		beq  r3, r0, done           ; mispredicted: wrong path runs stores
		ld   r9, [r1 + 64]          ; correct path: must read 21
		halt
	wrong:
		halt
	done:
		mul  r5, r3, r3             ; slow address ingredient
		st   [r1 + r5], r6          ; wrong-path store, address unknown a while
		ld   r8, [r1 + 64]          ; wrong-path load blocked by it
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	ev, po, er, pr := runBothScheds(t, noRunaheadConfig(), prog, testBudget)
	assertEquivalent(t, ev, po, er, pr)
	if got := ev.IntReg(9); got != 21 {
		t.Fatalf("r9 = %d, want 21", got)
	}
}

// INV-address stores during runahead never resolve an address; once they
// complete they must stop blocking younger runahead loads (watermark
// advance past an INV-done store) and the episode must behave identically
// under both schedulers.
func TestSQInvAddressStoreRunahead(t *testing.T) {
	prog, err := asm.Parse("sq", `
		.data 0x100000
		buf:  .zero 4096
		.align 64
		cold: .zero 64
		start:
		movi r1, buf
		movi r2, cold
		movi r6, 5
		st   [r1 + 8], r6
		clflush [r2 + 0]
		ld   r3, [r2 + 0]           ; memory miss: triggers runahead
		add  r4, r3, r1             ; INV address ingredient
		st   [r4 + 0], r6           ; runahead INV-address store
		ld   r5, [r1 + 8]           ; younger load: must unblock after the INV store completes
		add  r7, r5, r6
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ev, po, er, pr := runBothScheds(t, cfg, prog, testBudget)
	assertEquivalent(t, ev, po, er, pr)
	if ev.Stats().RunaheadEpisodes == 0 {
		t.Fatal("program did not trigger runahead")
	}
	if got := ev.IntReg(7); got != 10 {
		t.Fatalf("r7 = %d, want 10", got)
	}
}

// Whitebox: the event scheduler's in-flight list must never hold duplicate
// or stale pointers.  The runahead stalling load completes *outside*
// writeback (enterRunahead poisons it to stDone) and is recycled by commit;
// a writeback phase that retained non-issued entries would keep the freed
// pointer, and the pool's LIFO reuse would re-insert the same pointer as a
// younger uop — a mis-ordered duplicate that can flip same-cycle recovery
// order.  Found by review; pinned here.
func TestInflightHoldsNoDuplicatesOrCompleted(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.Gadgets = true
	for seed := int64(1); seed <= 8; seed++ {
		prog := proggen.Generate(seed, opt)
		c := New(DefaultConfig(), prog)
		seen := make(map[*uop]struct{}, 64)
		for i := 0; i < 200_000 && !c.Halted(); i++ {
			c.step()
			clear(seen)
			lastSeq := uint64(0)
			for _, u := range c.inflight {
				if _, dup := seen[u]; dup {
					t.Fatalf("seed %d cycle %d: duplicate uop pointer (seq %d) in inflight", seed, c.cycle, u.seq)
				}
				seen[u] = struct{}{}
				if u.seq < lastSeq {
					t.Fatalf("seed %d cycle %d: inflight out of age order (%d after %d)", seed, c.cycle, u.seq, lastSeq)
				}
				lastSeq = u.seq
				if !u.squashed && u.stage == stDone {
					t.Fatalf("seed %d cycle %d: completed uop (seq %d) retained in inflight", seed, c.cycle, u.seq)
				}
			}
		}
		if c.Stats().RunaheadEpisodes == 0 {
			t.Fatalf("seed %d: no runahead episodes; invariant not exercised", seed)
		}
	}
}

// Whitebox: the watermark and line chains must track store lifecycle —
// dispatch sets it, address resolution advances it, commit and squash
// maintain the ring and index eagerly.
func TestSQWatermarkWhitebox(t *testing.T) {
	prog, err := asm.Parse("sq", `
		.data 0x100000
		buf: .zero 64
		start:
		movi r1, buf
		movi r2, 9
		st   [r1 + 0], r2
		st   [r1 + 8], r2
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), prog)
	sawUnknown, sawKnownChain := false, false
	for i := 0; i < 10_000 && !c.Halted(); i++ {
		c.step()
		if c.sqUnknown != 0 {
			sawUnknown = true
		}
		if c.sqr.len() > 0 && c.sqUnknown == 0 {
			// All live stores have resolved addresses: each must be linked
			// into the chain of the line it writes.
			for j := 0; j < c.sqr.len(); j++ {
				st := c.sqr.at(j)
				if !st.addrValid || !st.sqLinked {
					continue
				}
				found := false
				for n := c.sqLineIdx[c.hier.LineAddr(st.addr)]; n != nil; n = n.next {
					if n.u == st {
						found = true
					}
				}
				if !found {
					t.Fatalf("store seq %d (addr %#x) missing from its line chain", st.seq, st.addr)
				}
				sawKnownChain = true
			}
		}
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	if !sawUnknown {
		t.Error("watermark never set while store addresses were unresolved")
	}
	if !sawKnownChain {
		t.Error("never observed a resolved store in its line chain")
	}
	if c.sqr.len() != 0 || c.sqUnknown != 0 || len(c.sqLineIdx) != 0 {
		t.Fatalf("SQ state leaks after halt: len=%d watermark=%d index=%d",
			c.sqr.len(), c.sqUnknown, len(c.sqLineIdx))
	}
}
