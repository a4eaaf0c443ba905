package cpu

import (
	"encoding/json"
	"errors"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/isa"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
)

// streamLoop builds an endless two-stream load loop over a footprint-byte
// region (power of two), with enough dependent work that the machine cycles
// through misses, runahead episodes, mispredictions and squashes — the full
// steady-state behaviour the zero-allocation property must hold under.
func streamLoop(t *testing.T, footprint uint64) *asm.Program {
	t.Helper()
	if footprint&(footprint-1) != 0 {
		t.Fatalf("footprint %d not a power of two", footprint)
	}
	b := asm.NewBuilder(0x1000, 0x100000)
	base := b.Alloc("buf", footprint, 64)
	r1, r2, off, tmp, mask := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	b.MoviAddr(r1, base)
	b.Movi(off, 0)
	b.Movi(mask, int64(footprint-1))
	b.Label("loop")
	b.Ldx(tmp, r1, off, 1, 0)
	b.Ldx(r2, r1, off, 1, 64)
	b.Add(tmp, tmp, r2)
	b.St(r1, 0, tmp)
	b.Addi(off, off, 128)
	b.And(off, off, mask)
	// A data-dependent branch so the predictor sometimes misses and the
	// squash/recovery path stays exercised.
	b.Andi(tmp, tmp, 3)
	b.Beq(tmp, isa.R(0), "loop")
	b.Jmp("loop")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// tickLoopConfig shrinks the caches so the stream loop misses to memory
// continuously (runahead episodes every few hundred cycles) without needing
// a multi-megabyte footprint.
func tickLoopConfig() Config {
	cfg := DefaultConfig()
	cfg.Mem.L2 = mem.CacheConfig{Name: "L2", Size: 16 << 10, Assoc: 4, Latency: 8}
	cfg.Mem.L3 = mem.CacheConfig{Name: "L3", Size: 64 << 10, Assoc: 8, Latency: 32}
	return cfg
}

// TestTickLoopZeroAllocSteadyState pins the tentpole property: once warmed
// up, the simulator tick loop performs no heap allocation at all — uops,
// checkpoints, queues, the runahead cache and the memory hierarchy all
// recycle.  A regression here silently reintroduces the ~400k-allocations-
// per-run profile this PR removed.
func TestTickLoopZeroAllocSteadyState(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)

	// Pre-touch the functional memory image so page-table growth is done
	// before measurement (the loop's working set covers it anyway; this just
	// makes the warmup deterministic).
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	// EpisodeReaches is the one deliberately unbounded stat (one entry per
	// episode); give it room so its amortised growth doesn't show up as a
	// tick-loop allocation.
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state tick loop allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestTickLoopZeroAllocTapDisabled pins the leak tap's inertness contract:
// a machine that had observers installed and then removed again (the
// SetObserver(nil) path) must be exactly as allocation-free as one that
// never had them — the nil-checked emission sites are the only footprint
// the tap leaves on an untapped run.
func TestTickLoopZeroAllocTapDisabled(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)
	// Install both taps, exercise them, then disable — the steady-state
	// measurement below must not see a trace of them.
	events := 0
	c.SetObserver(func(Observation) { events++ })
	c.Hier().SetObserver(func(mem.CacheEvent) { events++ })
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if events == 0 {
		t.Fatal("taps saw no events during warmup; the test lost its coverage")
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	c.SetObserver(nil)
	c.Hier().SetObserver(nil)
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with disabled tap allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestTickLoopZeroAllocTracerDisabled extends the inertness contract to the
// lifecycle tracer: a machine that had a per-uop tracer installed and then
// removed (SetTracer(nil)) must be exactly as allocation-free as one that
// never had it.  With the tracer installed, the events themselves pass by
// value through the callback, so the emission sites allocate nothing either
// — only the caller's own sink can.
func TestTickLoopZeroAllocTracerDisabled(t *testing.T) {
	const footprint = 1 << 20
	prog := streamLoop(t, footprint)
	c := New(tickLoopConfig(), prog)
	events := 0
	c.SetTracer(func(TraceEvent) { events++ })
	for a := uint64(0); a < footprint; a += 1 << 12 {
		c.Mem().SetByte(prog.MustSym("buf")+a, 0)
	}
	if err := c.Run(300_000); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("warmup: %v", err)
	}
	if events == 0 {
		t.Fatal("tracer saw no events during warmup; the test lost its coverage")
	}
	if c.Stats().RunaheadEpisodes == 0 {
		t.Fatal("tick-loop workload triggered no runahead episodes; the test lost its coverage")
	}
	grown := make([]uint64, len(c.stats.EpisodeReaches), 1<<16)
	copy(grown, c.stats.EpisodeReaches)
	c.stats.EpisodeReaches = grown

	// Still traced: the emission sites themselves must not allocate (the
	// counting sink above closes over an int that already escaped).
	avg := testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with tracer installed allocates: %.1f allocs per 20k cycles, want 0", avg)
	}

	c.SetTracer(nil)
	avg = testing.AllocsPerRun(5, func() {
		if err := c.Run(20_000); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("tick loop with removed tracer allocates: %.1f allocs per 20k cycles, want 0", avg)
	}
}

// TestResetReuseZeroAlloc pins the machine-reuse half of the tentpole: after
// one warmup pass, Reset + full re-run of the same program allocates
// nothing.
func TestResetReuseZeroAlloc(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	c := New(DefaultConfig(), prog)
	run := func() {
		if err := c.Run(20_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run() // warmup 1: grow pools to the program's high-water marks
	c.Reset(prog)
	run() // warmup 2: cover allocations on the reset path itself
	avg := testing.AllocsPerRun(3, func() {
		c.Reset(prog)
		run()
	})
	if avg != 0 {
		t.Fatalf("Reset+Run allocates: %.1f allocs per run, want 0", avg)
	}
}

// freshMachineAllocBudget pins the construction cost of one default-config
// machine.  New currently performs ~165 allocations (queues, pools, caches,
// predictor tables, the predecode cache); the pin leaves a little headroom
// for layout changes but catches order-of-magnitude drift — a regression
// here multiplies across every pooled campaign worker.
const freshMachineAllocBudget = 200

func TestFreshMachineAllocBudget(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	cfg := DefaultConfig()
	avg := testing.AllocsPerRun(5, func() {
		c := New(cfg, prog)
		_ = c
	})
	if avg > freshMachineAllocBudget {
		t.Fatalf("New allocates %.0f times, budget %d", avg, freshMachineAllocBudget)
	}
}

// TestResetMatchesFresh pins the correctness contract machine reuse rests
// on: a Reset machine is byte-identical — same statistics, same committed
// state — to a freshly constructed one, across the runahead variants and
// the secure mode, and even when the previous program differed.
func TestResetMatchesFresh(t *testing.T) {
	cfgs := map[string]Config{
		"baseline": func() Config { c := DefaultConfig(); c.Runahead.Kind = runahead.KindNone; return c }(),
		"original": DefaultConfig(),
		"precise":  func() Config { c := DefaultConfig(); c.Runahead.Kind = runahead.KindPrecise; return c }(),
		"vector":   func() Config { c := DefaultConfig(); c.Runahead.Kind = runahead.KindVector; return c }(),
		"secure":   func() Config { c := DefaultConfig(); c.Secure.Enabled = true; return c }(),
	}
	progA := proggen.Generate(11, proggen.DefaultOptions())
	progB := proggen.Generate(12, proggen.DefaultOptions())
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			fresh := New(cfg, progB)
			if err := fresh.Run(20_000_000); err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			reused := New(cfg, progA)
			if err := reused.Run(20_000_000); err != nil {
				t.Fatalf("first run: %v", err)
			}
			reused.Reset(progB)
			if err := reused.Run(20_000_000); err != nil {
				t.Fatalf("reused run: %v", err)
			}
			assertSameRun(t, fresh, reused)
			// A second Reset onto the same program keeps the predecode
			// cache; the run must still match the fresh machine.
			reused.Reset(progB)
			if err := reused.Run(20_000_000); err != nil {
				t.Fatalf("same-program rerun: %v", err)
			}
			assertSameRun(t, fresh, reused)
		})
	}
}

// assertSameRun fails t unless got finished with the same statistics,
// integer registers and cycle count as want.
func assertSameRun(t *testing.T, want, got *CPU) {
	t.Helper()
	w, _ := json.Marshal(want.Stats())
	g, _ := json.Marshal(got.Stats())
	if string(w) != string(g) {
		t.Errorf("stats diverged after Reset:\nfresh:  %s\nreused: %s", w, g)
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		if want.IntReg(i) != got.IntReg(i) {
			t.Errorf("r%d = %#x, want %#x", i, got.IntReg(i), want.IntReg(i))
		}
	}
	if want.Cycle() != got.Cycle() {
		t.Errorf("cycle = %d, want %d", got.Cycle(), want.Cycle())
	}
}

// TestResetOtherProgramSameLengthRepredecodes pins the predecode-cache
// guard: the cache survives only a Reset onto the very program the machine
// holds, so a different program of the same length is decoded afresh.
func TestResetOtherProgramSameLengthRepredecodes(t *testing.T) {
	build := func(op func(b *asm.Builder)) *asm.Program {
		b := asm.NewBuilder(0x1000, 0x10000)
		b.Movi(isa.R(1), 5)
		b.Movi(isa.R(2), 9)
		op(b)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	progAdd := build(func(b *asm.Builder) { b.Add(isa.R(3), isa.R(1), isa.R(2)) })
	progSub := build(func(b *asm.Builder) { b.Sub(isa.R(3), isa.R(1), isa.R(2)) })
	if len(progAdd.Insts) != len(progSub.Insts) {
		t.Fatal("test programs must have the same length")
	}
	fresh := New(DefaultConfig(), progSub)
	if err := fresh.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	reused := New(DefaultConfig(), progAdd)
	if err := reused.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := reused.IntReg(3); got != 14 {
		t.Fatalf("add program: r3 = %d, want 14", got)
	}
	reused.Reset(progSub)
	if err := reused.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got, want := reused.IntReg(3), ^uint64(3); got != want { // 5-9 = -4
		t.Fatalf("sub program after Reset: r3 = %#x, want %#x (stale predecode?)", got, want)
	}
	assertSameRun(t, fresh, reused)
}

// TestDeadlockReportsCycles pins the satellite bugfix: a Run that exits via
// ErrDeadlock must still publish the cycle count, so Stats.Cycles and IPC()
// reflect the failed run rather than a stale earlier one.
func TestDeadlockReportsCycles(t *testing.T) {
	// A program with no HALT: fetch runs off the text, the ROB drains, and
	// nothing ever retires again — the livelock Run detects.
	b := asm.NewBuilder(0x1000, 0x10000)
	b.Movi(isa.R(1), 42)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), prog)
	err = c.Run(10_000_000)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if got, want := c.Stats().Cycles, c.Cycle(); got != want || got == 0 {
		t.Fatalf("Stats.Cycles = %d, want the %d cycles the run burned", got, want)
	}
	if c.Stats().IPC() == 0 {
		t.Fatal("IPC() = 0 on a deadlocked run that committed instructions")
	}
	// The idle skip jumps straight to the watchdog's cycle; the polling
	// reference, which steps every cycle, must report the same one.
	ref := New(DefaultConfig(), prog)
	ref.SetPollingReference(true)
	refErr := ref.Run(10_000_000)
	if refErr == nil || refErr.Error() != err.Error() || ref.Cycle() != c.Cycle() {
		t.Fatalf("deadlock at cycle %d (%v), polling reference at cycle %d (%v)", c.Cycle(), err, ref.Cycle(), refErr)
	}
}
