package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specrun/internal/asm"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/iss"
	"specrun/internal/leak"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// Seeds per call in one campaign round. A round runs a fuzz campaign
// (difftest.Run), a leak campaign (leak.Run, which replays its fixed
// attack corpus first) and then times single-seed checks for the latency
// metrics.
const (
	fuzzChunk    = 300
	leakChunk    = 150
	fuzzLatChunk = 200
	leakLatChunk = 100
	probeSeeds   = 50 // programs × the quick matrix in the traced machine probe
	warmSeeds    = 32 // seeds each oracle checks during set-up
	// roundSeconds is about how long one round takes on the 2-core host
	// README.md describes. A window of w seconds runs w/roundSeconds rounds,
	// at least one: a fixed amount of work, so the seeds a run checks depend
	// on --seed and --seconds only, never on how fast the host or the
	// program is.
	roundSeconds = 3
)

// campaignRounds is the number of rounds a window of this length runs.
func campaignRounds(window time.Duration) int {
	return max(1, int(window/time.Second)/roundSeconds)
}

type campaign struct {
	base       int64 // first seed of the campaign, derived from --seed
	cfgs       []difftest.NamedConfig
	fuzzOpt    proggen.Options
	leakOpt    proggen.Options
	fuzzSpec   difftest.CampaignSpec
	leakSpec   difftest.CampaignSpec
	firstFuzz  difftest.Report
	firstLeak  leak.Report
	firstWalls [2]time.Duration // wall time of the first round's fuzz and leak campaigns
}

type campaignLoop struct {
	lightRate, heavyRate, simRate []float64 // per round
	light, heavy                  []time.Duration
}

func runCampaign(ctx context.Context, r *run) error {
	c, err := setup(r, func() (*campaign, error) {
		c := &campaign{
			base:     1 + r.seed*1_000_000,
			cfgs:     difftest.Matrix(false),
			fuzzSpec: difftest.CampaignSpec{Matrix: "quick", NoShrink: true},
			leakSpec: difftest.CampaignSpec{Matrix: "quick", NoShrink: true, Leaks: true},
		}
		c.fuzzOpt = c.fuzzSpec.Options()
		c.leakOpt = leak.Options(c.leakSpec)
		// Warm each worker's oracle machines on seeds below the campaign's.
		var diverged atomic.Bool
		parallel(r.workers, c.base-warmSeeds, warmSeeds, func(seed int64) time.Duration {
			if res := difftest.CheckSeed(seed, c.fuzzOpt, c.cfgs); len(res.Divergences) > 0 {
				diverged.Store(true)
			}
			leak.CheckSeed(seed, c.leakOpt, c.cfgs)
			return 0
		}, nil)
		if diverged.Load() {
			return nil, fmt.Errorf("a warm-up seed diverges from the reference")
		}
		return c, nil
	})
	if err != nil {
		return err
	}

	untracedWin, tracedWin := r.traceWindows()
	plain, err := c.loop(ctx, r, campaignRounds(untracedWin), nil)
	if err != nil {
		return err
	}
	r.digest = c.digest()
	if !r.traced {
		r.set("sim_mcycles_per_s", median(plain.simRate))
		r.set("light_per_s", median(plain.lightRate))
		r.set("heavy_per_s", median(plain.heavyRate))
		r.setLatency("light", plain.light)
		r.setLatency("heavy", plain.heavy)
		return nil
	}

	tr := newTracer()
	pool0 := core.MachinePoolStats()
	traced, err := c.loop(ctx, r, campaignRounds(tracedWin), tr)
	if err != nil {
		return err
	}
	r.setPoolHitRatio(pool0, core.MachinePoolStats())
	r.set("trace.overhead_ratio", ratio(median(plain.lightRate), median(traced.lightRate)))
	p50, p99 := latencyStats(tr.durations("difftest.CheckSeed"))
	r.set("difftest.check_seed_ms_p50", p50)
	r.set("difftest.check_seed_ms_p99", p99)
	p50, p99 = latencyStats(tr.durations("leak.CheckSeed"))
	r.set("leak.check_seed_ms_p50", p50)
	r.set("leak.check_seed_ms_p99", p99)
	r.setSim("difftest.divergences", float64(len(c.firstFuzz.Divergences)))
	r.setSim("leak.findings_per_run", ratio(float64(c.firstLeak.Leaks), float64(c.firstLeak.Runs)))

	// sweep.busy_share: the first round's seeds checked one by one on the
	// same worker count, against the wall time the two campaigns took.
	var busy atomic.Int64
	parallel(r.workers, c.base, fuzzChunk, func(seed int64) time.Duration {
		d := tr.do("probe.difftest.CheckSeed", seed, 0, func() { difftest.CheckSeed(seed, c.fuzzOpt, c.cfgs) })
		busy.Add(int64(d))
		return d
	}, nil)
	parallel(r.workers, c.base+fuzzChunk, leakChunk, func(seed int64) time.Duration {
		d := tr.do("probe.leak.CheckSeed", seed, 0, func() { leak.CheckSeed(seed, c.leakOpt, c.cfgs) })
		busy.Add(int64(d))
		return d
	}, nil)
	wall := c.firstWalls[0] + c.firstWalls[1]
	r.set("sweep.busy_share", ratio(float64(busy.Load()), float64(wall)*float64(r.workers)))

	// proggen, iss and the machine probe on the first seeds of the campaign.
	progs := make([]*asm.Program, probeSeeds)
	traces := make([]int64, probeSeeds)
	var it *iss.Interp
	for i := range progs {
		seed := c.base + int64(i)
		traces[i] = seed
		tr.do("proggen.Generate", seed, 0, func() { progs[i] = proggen.Generate(seed, c.fuzzOpt) })
		if it == nil {
			it = iss.New(progs[i])
		} else {
			it.Reset(progs[i])
		}
		var err error
		tr.do("iss.Run", seed, 0, func() { err = it.Run(core.DefaultProgramBudget) })
		if err != nil {
			return fmt.Errorf("iss seed %d: %w", seed, err)
		}
	}
	r.set("proggen.generate_us", tr.meanUS("proggen.Generate"))
	r.set("iss.run_us", tr.meanUS("iss.Run"))
	cfgs := make([]probeConfig, len(c.cfgs))
	for i, nc := range c.cfgs {
		cfgs[i] = probeConfig{nc.Name, nc.Config}
	}
	pt, err := machineProbe(tr, cfgs, progs, traces)
	if err != nil {
		return err
	}
	pt.report(r, tr)
	r.writeSpans(tr)
	return nil
}

// loop runs the given number of campaign rounds on consecutive seeds from
// the campaign's first seed; every window starts on the same seeds.
func (c *campaign) loop(ctx context.Context, r *run, rounds int, tr *tracer) (campaignLoop, error) {
	var l campaignLoop
	seed := c.base
	for round := int64(1); round <= int64(rounds); round++ {
		c0 := cpu.SimCyclesTotal()
		start := time.Now()

		spec := c.fuzzSpec
		spec.Seeds, spec.SeedBase = fuzzChunk, seed
		var fuzz difftest.Report
		var err error
		dFuzz := tr.do("difftest.Run", round, 0, func() {
			fuzz, err = difftest.Run(ctx, spec, sweep.Options{Workers: r.workers})
		})
		if err != nil {
			return l, fmt.Errorf("fuzz campaign at seed %d: %w", seed, err)
		}
		c.checkFuzz(r, fuzz, fuzzChunk)
		seed += fuzzChunk

		spec = c.leakSpec
		spec.Seeds, spec.SeedBase = leakChunk, seed
		var lk leak.Report
		dLeak := tr.do("leak.Run", round, 0, func() {
			lk, err = leak.Run(ctx, spec, sweep.Options{Workers: r.workers})
		})
		if err != nil {
			return l, fmt.Errorf("leak campaign at seed %d: %w", seed, err)
		}
		c.checkLeak(r, lk, leakChunk)
		seed += leakChunk
		if round == 1 {
			c.firstFuzz, c.firstLeak = fuzz, lk
			c.firstWalls = [2]time.Duration{dFuzz, dLeak}
		}

		var mu sync.Mutex
		var fuzzBad []int64
		var leakBad []leak.Finding
		l.light = parallel(r.workers, seed, fuzzLatChunk, func(s int64) time.Duration {
			var res difftest.SeedResult
			d := tr.do("difftest.CheckSeed", s, 0, func() { res = difftest.CheckSeed(s, c.fuzzOpt, c.cfgs) })
			if len(res.Divergences) > 0 {
				mu.Lock()
				fuzzBad = append(fuzzBad, s)
				mu.Unlock()
			}
			return d
		}, l.light)
		seed += fuzzLatChunk
		l.heavy = parallel(r.workers, seed, leakLatChunk, func(s int64) time.Duration {
			var res leak.SeedResult
			d := tr.do("leak.CheckSeed", s, 0, func() { res = leak.CheckSeed(s, c.leakOpt, c.cfgs) })
			if f, ok := oracleError(res.Findings); ok {
				mu.Lock()
				leakBad = append(leakBad, f)
				mu.Unlock()
			}
			return d
		}, l.heavy)
		seed += leakLatChunk
		r.attempt(fuzzLatChunk + leakLatChunk)
		for _, s := range fuzzBad {
			r.fail("fuzz seed %d diverges from the reference", s)
		}
		for _, f := range leakBad {
			failOracle(r, f)
		}

		l.lightRate = append(l.lightRate, fuzzChunk/dFuzz.Seconds())
		l.heavyRate = append(l.heavyRate, leakChunk/dLeak.Seconds())
		l.simRate = append(l.simRate, float64(cpu.SimCyclesTotal()-c0)/1e6/time.Since(start).Seconds())
	}
	return l, nil
}

// checkFuzz counts a fuzz campaign's seeds; a seed that diverges fails.
func (c *campaign) checkFuzz(r *run, rep difftest.Report, seeds int) {
	r.attempt(seeds)
	bad := map[int64]bool{}
	for _, d := range rep.Divergences {
		bad[d.Seed] = true
	}
	for s := range bad {
		r.fail("fuzz seed %d diverges from the reference", s)
	}
	r.check(rep.Runs == seeds*len(c.cfgs), "fuzz campaign ran %d of %d simulations", rep.Runs, seeds*len(c.cfgs))
}

// checkLeak counts a leak campaign's seeds; an oracle error fails its seed,
// and the Spectre-PHT corpus row must leak under original runahead and not
// without runahead.
func (c *campaign) checkLeak(r *run, rep leak.Report, seeds int) {
	r.attempt(seeds)
	bySeed := map[int64][]leak.Finding{}
	for _, f := range rep.Findings {
		bySeed[f.Seed] = append(bySeed[f.Seed], f)
	}
	for _, fs := range bySeed {
		if f, ok := oracleError(fs); ok {
			failOracle(r, f)
		}
	}
	var original, none *leak.CorpusRow
	for i, row := range rep.Corpus {
		switch {
		case row.Program == "pht" && row.Config == "original-rob256":
			original = &rep.Corpus[i]
		case row.Program == "pht" && row.Config == "none-rob256":
			none = &rep.Corpus[i]
		}
	}
	r.check(original != nil && original.Leak && original.Error == "", "pht corpus row does not leak under original runahead")
	r.check(none != nil && !none.Leak && none.Error == "", "pht corpus row leaks without runahead")
}

// oracleError returns the first of one seed's findings that is not a leak:
// a simulator run error or a sequential divergence.
func oracleError(fs []leak.Finding) (leak.Finding, bool) {
	for _, f := range fs {
		if f.Kind != leak.KindLeak {
			return f, true
		}
	}
	return leak.Finding{}, false
}

// failOracle fails a leak seed's operation, naming the configuration and
// the oracle's detail so the failure reproduces with leak.CheckSeed.
func failOracle(r *run, f leak.Finding) {
	r.fail("leak seed %d has an oracle error on %s: %s: %s", f.Seed, f.Config, f.Kind, f.Detail)
}

// parallel checks n seeds from first on `workers` goroutines and appends
// each check's duration to out.
func parallel(workers int, first int64, n int, check func(seed int64) time.Duration, out []time.Duration) []time.Duration {
	ds := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				ds[i] = check(first + i)
			}
		}()
	}
	wg.Wait()
	return append(out, ds...)
}

// digest is the sha256 over the first round's encoded fuzz and leak
// reports: a fixed, seed-determined set of simulations.
func (c *campaign) digest() string {
	h := sha256.New()
	for _, v := range []any{c.firstFuzz, c.firstLeak} {
		b, err := json.Marshal(v)
		if err != nil {
			return "unencodable: " + err.Error()
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
