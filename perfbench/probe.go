package main

import (
	"fmt"
	"time"

	"specrun/internal/asm"
	"specrun/internal/core"
)

// probeConfig is one machine configuration of the machine probe.
type probeConfig struct {
	name string
	cfg  core.Config
}

// probeTotals sums the machine probe's simulated counts, plus the host time
// spent in Machine.Run per configuration.
type probeTotals struct {
	runs                                    int
	cycles, committed, robFull, squashed    uint64
	episodes, raCycles, invBranches, pseudo uint64
	condBranches, mispredicts, slWaits      uint64
	l1d, l2, l3                             uint64
	runNS, insts                            map[string]float64 // per configuration name
}

// machineProbe runs every program on every configuration through the
// public Machine API: one core.NewMachine per configuration, then Reset and
// Run per program, each call inside a span. Spans of one program share its
// trace id. The counts are exact simulated values of a fixed input set.
func machineProbe(tr *tracer, cfgs []probeConfig, progs []*asm.Program, traces []int64) (probeTotals, error) {
	t := probeTotals{runNS: map[string]float64{}, insts: map[string]float64{}}
	root, endRoot := tr.begin("probe.machine", 0, 0)
	defer endRoot()
	for _, pc := range cfgs {
		var m *core.Machine
		tr.do("cpu.new", 0, root, func() { m = core.NewMachine(pc.cfg, progs[0]) })
		for i, p := range progs {
			tr.do("cpu.reset", traces[i], root, func() { m.Reset(p) })
			var err error
			d := tr.do("cpu.run", traces[i], root, func() { err = m.Run(core.DefaultProgramBudget) })
			if err != nil {
				return t, fmt.Errorf("machine probe: program %d on %s: %w", i, pc.name, err)
			}
			st := m.Stats()
			t.runs++
			t.cycles += st.Cycles
			t.committed += st.Committed
			t.robFull += st.ROBFullCycles
			t.squashed += st.Squashed
			t.episodes += st.RunaheadEpisodes
			t.raCycles += st.RunaheadCycles
			t.invBranches += st.INVBranches
			t.pseudo += st.PseudoRetired
			t.condBranches += st.CondBranches
			t.mispredicts += st.CondMispredicts
			t.slWaits += st.SLWaits
			_, l1d, l2, l3 := m.Hier().Caches()
			t.l1d += l1d.Stats.Misses
			t.l2 += l2.Stats.Misses
			t.l3 += l3.Stats.Misses
			t.runNS[pc.name] += float64(d.Nanoseconds())
			t.insts[pc.name] += float64(st.Committed)
		}
	}
	return t, nil
}

// report sets the cpu, runahead, branch, mem and secure metrics from the
// probe's spans and counts.
func (t probeTotals) report(r *run, tr *tracer) {
	runNS := float64(tr.total("cpu.run").Nanoseconds())
	r.set("cpu.run_ns_per_cycle", ratio(runNS, float64(t.cycles)))
	r.set("cpu.run_ns_per_inst", ratio(runNS, float64(t.committed)))
	r.set("cpu.reset_us", tr.meanUS("cpu.reset"))
	r.set("cpu.new_ms", ms(quantile(tr.durations("cpu.new"), 0.5)))
	r.setSim("cpu.cycles_per_run", ratio(float64(t.cycles), float64(t.runs)))
	r.setSim("cpu.sim_cycles", float64(t.cycles))
	r.setSim("cpu.committed", float64(t.committed))
	r.setSim("cpu.ipc", ratio(float64(t.committed), float64(t.cycles)))
	r.setSim("cpu.rob_full_cycles", float64(t.robFull))
	r.setSim("cpu.squashed", float64(t.squashed))
	r.setSim("runahead.episodes", float64(t.episodes))
	r.setSim("runahead.cycles_share", ratio(float64(t.raCycles), float64(t.cycles)))
	r.setSim("runahead.inv_branches", float64(t.invBranches))
	r.setSim("runahead.pseudo_retired", float64(t.pseudo))
	r.setSim("branch.mispredict_rate", ratio(float64(t.mispredicts), float64(t.condBranches)))
	r.setSim("mem.l1d_misses", float64(t.l1d))
	r.setSim("mem.l2_misses", float64(t.l2))
	r.setSim("mem.l3_misses", float64(t.l3))
	r.setSim("secure.sl_waits", float64(t.slWaits))
}

// setPoolHitRatio sets core.pool_hit_ratio from two machine-pool snapshots.
func (r *run) setPoolHitRatio(before, after core.PoolStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.set("core.pool_hit_ratio", ratio(float64(hits), float64(hits+misses)))
}

// nsPerInst is the host time per committed instruction on one configuration.
func (t probeTotals) nsPerInst(cfg string) float64 { return ratio(t.runNS[cfg], t.insts[cfg]) }

// latencyStats returns the p50 and p99 of ds in milliseconds.
func latencyStats(ds []time.Duration) (p50, p99 float64) {
	return ms(quantile(ds, 0.50)), ms(quantile(ds, 0.99))
}
