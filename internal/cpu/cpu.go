// Package cpu implements the cycle-level out-of-order processor model of the
// SPECRUN paper (Table 1, Fig. 6): a 4-wide superscalar core with a 256-entry
// reorder buffer, speculative wrong-path execution with real cache side
// effects, runahead execution (original, precise and vector variants) with
// INV poison tracking and pseudo-retirement, and the secure runahead
// extensions of §6 (SL cache + taint tracking).
//
// Design notes:
//
//   - Decoupled functional/timing model: data values live in a flat memory
//     image plus the store queue and runahead cache; caches carry tags and
//     fill timing only.  Cache fills issued by squashed (wrong-path or
//     runahead) instructions persist — the transient-execution side channel.
//   - Values are captured in reorder-buffer entries (uops); the register
//     alias table maps architectural registers to in-flight producers and is
//     checkpointed per control instruction for single-cycle recovery.
//   - The committed architectural state advances only at retirement, so the
//     reference interpreter (internal/iss) and this core must agree on final
//     state for any program — enforced by differential tests.
package cpu

import (
	"errors"
	"fmt"
	"sync/atomic"

	"specrun/internal/asm"
	"specrun/internal/branch"
	"specrun/internal/isa"
	"specrun/internal/mem"
	"specrun/internal/runahead"
	"specrun/internal/secure"
)

// SecureConfig enables the §6 defense.
type SecureConfig struct {
	Enabled   bool `json:"enabled"`
	SLEntries int  `json:"sl_entries"` // SL cache capacity in lines
	SLLatency int  `json:"sl_latency"` // SL cache hit latency in cycles
}

// Config is the full machine configuration (defaults per Table 1).  The JSON
// tags define the stable wire format used by the HTTP API and the JSON CLI
// output; partial documents decode over DefaultConfig.
type Config struct {
	FetchWidth    int `json:"fetch_width"`
	DecodeWidth   int `json:"decode_width"`
	DispatchWidth int `json:"dispatch_width"`
	IssueWidth    int `json:"issue_width"`
	CommitWidth   int `json:"commit_width"`
	FrontEndDepth int `json:"front_end_depth"` // front-end stages between fetch and dispatch

	ROBSize int `json:"rob_size"`
	IQSize  int `json:"iq_size"`
	LQSize  int `json:"lq_size"`
	SQSize  int `json:"sq_size"`

	IntPRF int `json:"int_prf"` // physical register file sizes (rename resources)
	FPPRF  int `json:"fp_prf"`
	VecPRF int `json:"vec_prf"`

	IntALU   int `json:"int_alu"` // functional unit counts
	IntMul   int `json:"int_mul"`
	IntDiv   int `json:"int_div"`
	FPAdd    int `json:"fp_add"`
	FPMul    int `json:"fp_mul"`
	FPDiv    int `json:"fp_div"`
	MemPorts int `json:"mem_ports"`

	FrontQ int `json:"front_q"` // fetch buffer capacity

	Mem      mem.Config      `json:"mem"`
	Branch   branch.Config   `json:"branch"`
	Runahead runahead.Config `json:"runahead"`
	Secure   SecureConfig    `json:"secure"`
}

// DefaultConfig returns the Table 1 processor configuration with original
// runahead execution enabled.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		DecodeWidth:   4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontEndDepth: 6,
		ROBSize:       256,
		IQSize:        40,
		LQSize:        40,
		SQSize:        40,
		// Table 1 prints 80 int / 40 fp / 40 xmm registers, but with a
		// 256-entry ROB that would starve rename long before the window
		// fills, contradicting both the paper's Fig. 7 baseline and [13]'s
		// observation that backend resources suffice.  The default sizes the
		// register files to the window; Table1RegisterFiles() restores the
		// printed values for sensitivity studies.
		IntPRF:   256 + 32,
		FPPRF:    128 + 16,
		VecPRF:   128 + 16,
		IntALU:   4,
		IntMul:   2,
		IntDiv:   1,
		FPAdd:    2,
		FPMul:    1,
		FPDiv:    1,
		MemPorts: 2,
		FrontQ:   16,
		Mem:      mem.DefaultConfig(),
		Branch:   branch.DefaultConfig(),
		Runahead: runahead.DefaultConfig(),
		Secure:   SecureConfig{Enabled: false, SLEntries: 64, SLLatency: 2},
	}
}

// Table1RegisterFiles returns cfg with the literal Table 1 register-file
// sizes (80 int / 40 fp / 40 xmm).  With the 256-entry ROB these bind the
// effective window at ~48 in-flight integer writers; the ablation benchmark
// quantifies the effect.
func Table1RegisterFiles(cfg Config) Config {
	cfg.IntPRF, cfg.FPPRF, cfg.VecPRF = 80, 40, 40
	return cfg
}

// Mode is the execution mode of the core.
type Mode uint8

const (
	// ModeNormal is ordinary out-of-order execution.
	ModeNormal Mode = iota
	// ModeRunahead is speculative pre-execution past a stalling load.
	ModeRunahead
)

// Stats aggregates per-run counters.
type Stats struct {
	Cycles        uint64 `json:"cycles"`
	Committed     uint64 `json:"committed"`
	PseudoRetired uint64 `json:"pseudo_retired"`
	Fetched       uint64 `json:"fetched"`
	Dispatched    uint64 `json:"dispatched"`
	Issued        uint64 `json:"issued"`
	Squashed      uint64 `json:"squashed"`

	CondBranches    uint64 `json:"cond_branches"`
	CondMispredicts uint64 `json:"cond_mispredicts"`
	INVBranches     uint64 `json:"inv_branches"` // unresolved branches inside runahead (the SPECRUN window)

	RunaheadEpisodes uint64   `json:"runahead_episodes"`
	RunaheadCycles   uint64   `json:"runahead_cycles"`
	EpisodeReaches   []uint64 `json:"episode_reaches,omitempty"` // transient reach (uops past the stalling load) per episode
	MaxStallWindow   uint64   `json:"max_stall_window"`          // normal-mode in-flight high-water mark during memory stalls
	ROBFullCycles    uint64   `json:"rob_full_cycles"`
	SLWaits          uint64   `json:"sl_waits"` // loads stalled on SL-cache branch gating
	VectorPrefetches uint64   `json:"vector_prefetches"`
	DroppedPRE       uint64   `json:"dropped_pre"`     // non-slice uops dropped in precise runahead mode
	SkipBarriers     uint64   `json:"skip_barriers"`   // INV-branch fetch barriers (SkipINVBranch mitigation)
	LoadBlockedSQ    uint64   `json:"load_blocked_sq"` // load issue attempts blocked by older stores
	RAPrefIssued     uint64   `json:"ra_pref_issued"`  // memory-level fills issued during runahead (prefetches)
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MaxEpisodeReach returns the largest transient reach across episodes.
func (s *Stats) MaxEpisodeReach() uint64 {
	var m uint64
	for _, r := range s.EpisodeReaches {
		if r > m {
			m = r
		}
	}
	return m
}

// Run-termination errors.
var (
	ErrMaxCycles = errors.New("cpu: cycle budget exhausted before HALT")
	ErrDeadlock  = errors.New("cpu: no forward progress (livelock or fetch off the program)")
)

// runaheadState tracks one runahead episode.
type runaheadState struct {
	checkpoint   archState
	stallingPC   uint64
	stallingSeq  uint64
	stallDone    uint64 // cycle the stalling load's fill arrives (exit condition)
	episode      uint64
	maxSeq       uint64 // highest seq dispatched during the episode
	fetchBarrier bool   // SkipINVBranch mitigation engaged
}

// CPU is the simulated core.
type CPU struct {
	cfg  Config
	prog *asm.Program

	memImg  *mem.Memory
	hier    *mem.Hierarchy
	bp      *branch.Predictor
	raCache *mem.RunaheadCache

	// Precise/vector runahead helpers.
	rdt     *runahead.RDT
	strides *runahead.StrideDetector

	// Secure runahead.
	sl       *secure.SLCache
	tracker  *secure.Tracker
	slActive bool
	// resolvedOK is the paper's S[]: scope id -> correctly predicted.  Scope
	// ids are bounded at 63 per episode (secure.Tracker exhausts its tag
	// space there), so the set is an epoch-tagged array: an entry is "set"
	// iff it carries the current scopeEpoch, and clearing it for a new
	// episode is a single counter bump.
	resolvedOK [64]uint64
	scopeEpoch uint64

	arch archState
	rat  rat

	mode Mode
	ra   runaheadState
	// Back-to-back runahead entries on the load at raReentryPC with no
	// normal-mode commit between them (bounded by maxRunaheadReentries).
	raReentryPC uint64
	raReentries int

	cycle uint64
	seq   uint64

	// Front end.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchBlocked    bool // ran off the program text or past HALT; waits for redirect
	lastFetchLine   uint64
	frontQ          *uopRing

	// Per-PC predecode cache: one uop template per static instruction,
	// filled lazily the first time a PC is fetched (pd[i].Op == isa.BAD
	// marks an unfilled slot; BAD never assembles).  Every dynamic instance
	// shares the template, so fetch/dispatch read flat fields instead of
	// re-deriving kind/FU/operand metadata per fetch.  Templates are a pure
	// function of the instruction, so Reset keeps them when it is handed the
	// program the machine already holds.
	pd []isa.Predecoded

	// Back end.  The event-driven scheduler (sched.go, the default) selects
	// from the age-ordered ready/replay queues and tracks IQ/LQ occupancy as
	// counters; the polling reference (sched_poll.go) keeps the iq/lq/sq
	// slices it rescans every cycle.  Both share the ROB and in-flight list.
	rob      *uopRing
	inflight []*uop // issued, awaiting completion; age-ordered under the event scheduler
	// nextDone is no later than the earliest doneAt in inflight (event
	// scheduler only): writeback recomputes it as it compacts the list and
	// issue lowers it.  Runahead entry moves doneAts in the commit phase,
	// before writeback; a store-data wakeup in writeback moves only a store
	// younger than its producer, which the same age-ordered scan reaches
	// afterwards.  It may run early — a squash does not raise it — which
	// costs the idle check a skip, never a cycle.
	nextDone uint64

	ready        []*uop // operand-ready uops awaiting select, age-ordered
	replay       []*uop // ready uops blocked on a non-operand condition (uop.replayWhy)
	readyScratch []*uop // merge buffer for mergeReplay
	iqUsed       int
	lqUsed       int
	sqr          *uopRing           // live stores in age order (front oldest)
	sqLineIdx    map[uint64]*sqNode // line addr -> chain of stores writing it
	sqUnknown    uint64             // seq of the oldest store with an unknown address (0 = none)

	pollSched bool   // use the polling reference scheduler (differential tests)
	iq        []*uop // polling reference only; allocated by SetPollingReference
	lq        []*uop
	sq        []*uop

	// uop recycling (see the uop type for the safety argument).  deadNew and
	// deadOld hold squashed uops that the lazily-compacted queues may still
	// reference; a uop squashed in step T is out of every queue by the end of
	// step T+1, so the end-of-step drain frees deadOld and rotates the lists.
	uopPool          []*uop
	ratPool          []*rat
	wchunkPool       []*waiterChunk
	deadNew, deadOld []*uop

	// Rename resources in use.
	intPRFUsed, fpPRFUsed, vecPRFUsed int

	// Per-cycle FU accounting.  fuUsed counts are valid only for the cycle
	// stamped in fuStamp; consumeFU batch-clears them on the first claim of
	// a new cycle, so the issue phase no longer zeroes the array every cycle
	// (most cycles issue nothing from several FU classes).
	fuUsed   [8]int // indexed by isa.FU for pipelined units
	fuStamp  uint64 // cycle the fuUsed counts belong to
	divBusy  []uint64
	fdivBusy []uint64

	halted         bool
	lastProgress   uint64
	dispatchedPrev int // uops dispatched in the previous cycle (halt detection)
	dispatchedNow  int
	stats          Stats

	// debugRA, when set, receives a line per runahead entry/exit (tests).
	debugRA func(format string, args ...any)

	// Observation hooks: occupancy sampling (SetSampler), per-uop lifecycle
	// tracing (SetTracer), commit-stream observation (SetCommitHook) and the
	// microarchitectural leak tap (SetObserver).
	sampleEvery uint64
	sampleFn    func(Sample)
	traceFn     func(TraceEvent)
	commitFn    func(CommitRecord)
	obsFn       func(Observation)
}

// New builds a CPU running prog.  The program's data segments are loaded
// into a fresh memory image; fetch starts at prog.Base.  prog must not be
// modified while a machine holds it: the predecode cache outlives a Reset
// onto the same program.
//
// Every capacity-bounded structure is sized up front: the steady-state tick
// loop performs no heap allocation, and Reset returns the machine to this
// state without rebuilding any of it.
func New(cfg Config, prog *asm.Program) *CPU {
	m := mem.NewMemory()
	prog.LoadInto(m)
	c := &CPU{
		cfg:          cfg,
		prog:         prog,
		memImg:       m,
		hier:         mem.NewHierarchy(cfg.Mem),
		bp:           branch.New(cfg.Branch),
		raCache:      mem.NewRunaheadCache(cfg.Runahead.RunaheadCacheBytes),
		rdt:          runahead.NewRDT(prog.Base, len(prog.Insts)),
		strides:      runahead.NewStrideDetector(),
		sl:           secure.NewSLCache(cfg.Secure.SLEntries),
		scopeEpoch:   1,
		fetchPC:      prog.Base,
		frontQ:       newRing(cfg.FrontQ),
		rob:          newRing(cfg.ROBSize),
		inflight:     make([]*uop, 0, cfg.ROBSize),
		ready:        make([]*uop, 0, cfg.IQSize),
		replay:       make([]*uop, 0, cfg.IQSize),
		readyScratch: make([]*uop, 0, cfg.IQSize),
		sqr:          newRing(cfg.SQSize),
		sqLineIdx:    make(map[uint64]*sqNode, 2*cfg.SQSize),
		divBusy:      make([]uint64, cfg.IntDiv),
		fdivBusy:     make([]uint64, cfg.FPDiv),
		pd:           make([]isa.Predecoded, len(prog.Insts)),
	}
	// Seed the uop pool from one slab: enough for a full window plus the
	// fetch buffer and one squash generation in flight.  The pool still
	// grows on demand if a pathological schedule needs more.
	slab := make([]uop, 2*(cfg.ROBSize+cfg.FrontQ))
	c.uopPool = make([]*uop, 0, len(slab))
	for i := range slab {
		c.uopPool = append(c.uopPool, &slab[i])
	}
	return c
}

// Reset rewinds the machine to its just-constructed state and loads prog,
// reusing every allocation: caches, predictor tables, pooled uops and
// checkpoints, queue storage and memory pages.  A Reset machine is
// indistinguishable from New(cfg, prog) — same cycle-level timing, same
// statistics — which the regression tests pin; sweep and difftest workers
// rely on it to run one machine per worker instead of one per job.
// Installed observers (SetSampler, SetTracer, SetCommitHook, debug hooks)
// are kept, and so are the predecoded templates when prog is the program
// the machine already holds.
func (c *CPU) Reset(prog *asm.Program) {
	// Drain the pipeline back into the pool (stores leave the
	// disambiguation index first, while their chain nodes are still live).
	for c.sqr.len() > 0 {
		c.sqUnlink(c.sqr.popFront())
	}
	c.sqUnknown = 0
	for c.rob.len() > 0 {
		c.freeUOp(c.rob.popBack())
	}
	for c.frontQ.len() > 0 {
		c.freeUOp(c.frontQ.popFront())
	}
	for _, u := range c.deadNew {
		c.freeUOp(u)
	}
	c.deadNew = c.deadNew[:0]
	for _, u := range c.deadOld {
		c.freeUOp(u)
	}
	c.deadOld = c.deadOld[:0]
	c.iq = c.iq[:0]
	c.lq = c.lq[:0]
	c.sq = c.sq[:0]
	c.inflight = c.inflight[:0]
	c.nextDone = 0
	c.ready = c.ready[:0]
	c.replay = c.replay[:0]
	c.iqUsed, c.lqUsed = 0, 0

	samePD := prog == c.prog && len(c.pd) == len(prog.Insts)
	c.prog = prog
	c.memImg.Reset()
	prog.LoadInto(c.memImg)
	c.hier.Reset()
	c.bp.Reset()
	c.raCache.Reset()
	c.rdt.Reset(prog.Base, len(prog.Insts))
	c.strides.Reset()
	c.sl.Reset()
	if c.tracker != nil {
		c.tracker.Reset()
	}
	c.slActive = false
	c.resolvedOK = [64]uint64{}
	c.scopeEpoch = 1

	c.arch = archState{}
	c.rat.reset()
	c.mode = ModeNormal
	c.ra = runaheadState{}
	c.raReentryPC, c.raReentries = 0, 0
	c.cycle, c.seq = 0, 0

	c.fetchPC = prog.Base
	c.fetchStallUntil = 0
	c.fetchBlocked = false
	c.lastFetchLine = 0

	switch {
	case samePD:
		// Same immutable program: every filled template is still valid.
	case cap(c.pd) >= len(prog.Insts):
		c.pd = c.pd[:len(prog.Insts)]
		clear(c.pd)
	default:
		c.pd = make([]isa.Predecoded, len(prog.Insts))
	}

	c.intPRFUsed, c.fpPRFUsed, c.vecPRFUsed = 0, 0, 0
	c.fuUsed = [8]int{}
	// The cycle counter rewinds to 0; park the stamp on a cycle no run can
	// reach so stale counts never alias a fresh cycle's.
	c.fuStamp = ^uint64(0)
	for i := range c.divBusy {
		c.divBusy[i] = 0
	}
	for i := range c.fdivBusy {
		c.fdivBusy[i] = 0
	}

	c.halted = false
	c.lastProgress = 0
	c.dispatchedPrev, c.dispatchedNow = 0, 0
	reaches := c.stats.EpisodeReaches[:0]
	c.stats = Stats{EpisodeReaches: reaches}
}

// Mem returns the functional memory image (committed state).
func (c *CPU) Mem() *mem.Memory { return c.memImg }

// Hier returns the cache hierarchy for harness-side probing.
func (c *CPU) Hier() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (tests).
func (c *CPU) Predictor() *branch.Predictor { return c.bp }

// SL exposes the SL cache (tests, stats).
func (c *CPU) SL() *secure.SLCache { return c.sl }

// Stats returns the accumulated statistics.
func (c *CPU) Stats() *Stats { return &c.stats }

// Cycle returns the current cycle.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Halted reports whether HALT has committed.
func (c *CPU) Halted() bool { return c.halted }

// IntReg reads a committed integer register.
func (c *CPU) IntReg(i int) uint64 { return c.arch.intv[i] }

// FPReg reads a committed floating-point register.
func (c *CPU) FPReg(i int) uint64 { return c.arch.fpv[i] }

// VecReg reads a committed vector register.
func (c *CPU) VecReg(i int) [2]uint64 { return c.arch.vecv[i] }

// Mode returns the current execution mode.
func (c *CPU) Mode() Mode { return c.mode }

// progressWindow is the number of cycles without progress after which Run
// declares a deadlock.  Progress is a retirement or pseudo-retirement, and
// also a runahead entry or exit, so the watchdog alone would never stop a
// load that keeps re-entering runahead; maxRunaheadReentries bounds that
// case instead.  Run's idle skip never jumps past the cycle at which the
// watchdog would fire, so a deadlock reports the same cycle it would if
// every cycle were stepped.
const progressWindow = 200_000

// simCycles is the process-wide count of cycles simulated by every Run call
// on every machine — the service-level "work done" meter exported on the
// server's /metrics endpoint.  One atomic add per Run keeps it off the tick
// loop's profile.
var simCycles atomic.Uint64

// SimCyclesTotal reports the total cycles simulated process-wide.
func SimCyclesTotal() uint64 { return simCycles.Load() }

// Run advances the machine until HALT commits or maxCycles elapse.
// Stats.Cycles is brought up to date on every exit path, including the
// deadlock one — callers inspecting IPC() after an error see the cycles the
// machine actually burned, not a stale count from a previous Run call.
//
// Cycles in which no pipeline phase can act — everything waits on a
// completion, a fetch stall, a front-end delay or a runahead exit (see
// idleUntil) — are not stepped one by one: Run jumps the clock to the next
// cycle at which something can happen, never past maxCycles or the deadlock
// watchdog, and accounts the skipped cycles in bulk (RunaheadCycles,
// ROBFullCycles, the stall-window high-water mark and one sampler tick per
// multiple of the sampling interval).  Stats, commit streams, samples and
// traces are the same as stepping every cycle; the polling reference
// scheduler (SetPollingReference) deliberately still steps every cycle, so
// the scheduler equivalence suite checks the skip too.
func (c *CPU) Run(maxCycles uint64) error {
	start := c.cycle
	err := c.run(maxCycles)
	simCycles.Add(c.cycle - start)
	return err
}

func (c *CPU) run(maxCycles uint64) error {
	limit := c.cycle + maxCycles
	for !c.halted && c.cycle < limit {
		if next := c.skipTarget(limit); next > c.cycle {
			c.skipTo(next)
		} else {
			c.step()
		}
		if c.cycle-c.lastProgress > progressWindow {
			c.stats.Cycles = c.cycle
			return fmt.Errorf("%w at cycle %d (pc %#x, mode %d)", ErrDeadlock, c.cycle, c.fetchPC, c.mode)
		}
	}
	c.stats.Cycles = c.cycle
	if !c.halted {
		return ErrMaxCycles
	}
	return nil
}

// step advances one clock cycle.
func (c *CPU) step() {
	now := c.cycle

	// Runahead exit has priority: the stalling load's data arrived.
	if c.mode == ModeRunahead {
		c.stats.RunaheadCycles++
		if now >= c.ra.stallDone {
			c.exitRunahead(now)
		}
	}

	c.commitPhase(now)
	c.writebackPhase(now)
	c.issuePhase(now)
	c.dispatchedNow = 0
	c.dispatchPhase(now)
	c.dispatchedPrev = c.dispatchedNow
	c.fetchPhase(now)

	if c.rob.full() {
		c.stats.ROBFullCycles++
	}
	c.sampleTick()
	c.cycle++

	// Recycle uops squashed one full step ago: every lazily-compacted queue
	// has dropped them by now (iq/lq/sq at this step's issue phase, inflight
	// at this step's writeback), so no queue can hand out a recycled pointer.
	if len(c.deadOld) > 0 {
		for _, u := range c.deadOld {
			c.freeUOp(u)
		}
		c.deadOld = c.deadOld[:0]
	}
	c.deadOld, c.deadNew = c.deadNew, c.deadOld
}
