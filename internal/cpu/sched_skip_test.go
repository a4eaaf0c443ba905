package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/isa"
	"specrun/internal/proggen"
)

// runOutcome is everything a Run exposes: statistics, commit stream, final
// cycle and error text.
type runOutcome struct {
	stats Stats
	recs  []CommitRecord
	cycle uint64
	err   string
}

// runInChunks spends budget cycles on a fresh machine in Run calls of at
// most chunk cycles, stopping at the first error other than ErrMaxCycles —
// the way core.RunProgramStatsCtx drives a machine.
func runInChunks(cfg Config, prog *asm.Program, budget, chunk uint64) runOutcome {
	c := New(cfg, prog)
	var o runOutcome
	c.SetCommitHook(func(r CommitRecord) { o.recs = append(o.recs, r) })
	var err error
	for done := uint64(0); done < budget; done += chunk {
		err = c.Run(min(chunk, budget-done))
		if !errors.Is(err, ErrMaxCycles) {
			break
		}
	}
	o.stats, o.cycle = *c.Stats(), c.Cycle()
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestRunChunkedMatchesSingle pins that Run's idle skip never crosses a Run
// limit: a run split into chunks of 1, 7, 97 or 4096 cycles ends with the
// same Stats, commit stream, cycle and error as one Run over the whole
// budget, whether it halts, exhausts the budget inside an idle stretch or
// deadlocks.
func TestRunChunkedMatchesSingle(t *testing.T) {
	type job struct {
		name   string
		cfg    Config
		prog   *asm.Program
		budget uint64
	}
	var jobs []job
	opt := proggen.DefaultOptions()
	opt.Gadgets = true
	for name, cfg := range equivalenceConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, job{fmt.Sprintf("%s/seed%d", name, seed), cfg, proggen.Generate(seed, opt), 20_000_000})
		}
	}
	for _, seed := range reentryCapSeeds {
		jobs = append(jobs, job{fmt.Sprintf("tiny-l2/reentry%d", seed), equivalenceConfigs()["tiny-l2"], reentryCapProgram(seed), 20_000_000})
	}
	// A memory-bound loop that never halts: the budget runs out, most likely
	// inside a stretch of idle cycles.
	jobs = append(jobs, job{"stream/budget", tickLoopConfig(), streamLoop(t, 1<<20), 30_011})
	// Fetch runs off the text and the watchdog fires.
	b := asm.NewBuilder(0x1000, 0x10000)
	b.Movi(isa.R(1), 42)
	noHalt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{"deadlock", DefaultConfig(), noHalt, 10_000_000})

	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			want := runInChunks(j.cfg, j.prog, j.budget, j.budget)
			for _, chunk := range []uint64{1, 7, 97, 4096} {
				got := runInChunks(j.cfg, j.prog, j.budget, chunk)
				if got.cycle != want.cycle || got.err != want.err {
					t.Fatalf("chunk %d: cycle %d err %q, one Run: cycle %d err %q", chunk, got.cycle, got.err, want.cycle, want.err)
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Fatalf("chunk %d: stats diverge:\n chunked: %+v\n one Run: %+v", chunk, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.recs, want.recs) {
					t.Fatalf("chunk %d: commit streams diverge (%d vs %d records)", chunk, len(got.recs), len(want.recs))
				}
			}
		})
	}
}

// TestNextDoneNeverLate pins the invariant the idle check rests on: after
// every step, nextDone is no later than the earliest completion in the
// in-flight list.  (It may be earlier; that only shortens a skip.)  The
// test also requires the skip to find idle cycles in every equivalence
// configuration, so the equivalence suite keeps exercising it.
func TestNextDoneNeverLate(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.Gadgets = true
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			idle := 0
			for seed := int64(1); seed <= 4; seed++ {
				c := New(cfg, proggen.Generate(seed, opt))
				for i := 0; i < 200_000 && !c.Halted(); i++ {
					c.step()
					for _, u := range c.inflight {
						if u.doneAt < c.nextDone {
							t.Fatalf("seed %d cycle %d: in-flight seq %d completes at %d, nextDone %d",
								seed, c.cycle, u.seq, u.doneAt, c.nextDone)
						}
					}
					if c.idleUntil(c.cycle) != 0 {
						idle++
					}
				}
				if !c.Halted() {
					t.Fatalf("seed %d did not halt", seed)
				}
			}
			if idle == 0 {
				t.Fatal("no idle cycle found; the skip is untested in this configuration")
			}
		})
	}
}
