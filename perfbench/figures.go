package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/server"
	"specrun/internal/workload"
)

// figureDrivers are the paper's evaluation drivers in paper order; ipc
// (Fig. 7) is the heavy operation of the figures workload, the PoC drivers
// the light one.
var figureDrivers = []string{"ipc", "fig9", "fig10", "fig11", "defense", "variants"}

// paperFig7SpeedupPct is the mean runahead speedup the paper reports.
const paperFig7SpeedupPct = 11.0

type figures struct {
	cfg     core.Config
	params  attack.Params
	kernels []*asm.Program
	want    map[string][32]byte // sha256 of each driver's first encoded result
	fig7    float64             // mean Fig. 7 speedup in percent
}

// figuresLoop holds what one measured window of the figures workload saw.
type figuresLoop struct {
	light, heavy []time.Duration // per driver call
	simRate      []float64       // Mcycles per host second, per pass
	lightRate    []float64       // PoC driver calls per second, per pass
	heavyRate    []float64       // ipc calls per second, per pass
}

func runFigures(ctx context.Context, r *run) error {
	f, err := setup(r, func() (*figures, error) {
		f := &figures{
			cfg:    core.Normalize(core.DefaultConfig()),
			params: attack.DefaultParams(),
			want:   map[string][32]byte{},
		}
		for _, k := range workload.Kernels() {
			f.kernels = append(f.kernels, k.Build())
		}
		// One warm pass fills the machine pools and records the outputs
		// every later pass must reproduce byte for byte.
		for _, name := range figureDrivers {
			if _, err := f.call(ctx, r, name, nil, 0); err != nil {
				return nil, err
			}
		}
		return f, nil
	})
	if err != nil {
		return err
	}
	r.digest = f.digest()
	fmt.Printf("fig7 mean speedup %.2f%% (paper ~%.0f%%, error %+.2f pp)\n", f.fig7, paperFig7SpeedupPct, f.fig7-paperFig7SpeedupPct)

	untracedWin, tracedWin := r.traceWindows()
	rng := rand.New(rand.NewSource(r.seed))
	plain, err := f.loop(ctx, r, untracedWin, rng, nil)
	if err != nil {
		return err
	}
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
	traced, err := f.loop(ctx, r, tracedWin, rng, tr)
	if err != nil {
		return err
	}
	r.setPoolHitRatio(pool0, core.MachinePoolStats())
	r.set("trace.overhead_ratio", ratio(median(plain.simRate), median(traced.simRate)))

	// The Fig. 7 kernels on the machines Fig. 7 compares, plus the §6
	// SL-cache machine so the secure layer is reached.
	cfgs := []probeConfig{
		{"baseline", core.BaselineConfig()},
		{"runahead", core.DefaultConfig()},
		{"secure", core.SecureConfig()},
	}
	traces := make([]int64, len(f.kernels))
	for i := range traces {
		traces[i] = int64(i + 1)
	}
	pt, err := machineProbe(tr, cfgs, f.kernels, traces)
	if err != nil {
		return err
	}
	pt.report(r, tr)
	r.set("runahead.host_cost_ratio", ratio(pt.nsPerInst("runahead"), pt.nsPerInst("baseline")))
	r.setSim("runahead.fig7_speedup_pct", f.fig7)

	// The keys the server would derive for these routes.
	for i := 0; i < 50; i++ {
		for _, name := range figureDrivers {
			var err error
			tr.do("core.HashKey", 0, 0, func() {
				if name == "fig9" {
					_, err = core.HashKey(name, f.cfg, f.params)
				} else {
					_, err = core.HashKey(name, f.cfg)
				}
			})
			if err != nil {
				return fmt.Errorf("hash key: %w", err)
			}
		}
	}
	r.set("core.hashkey_us", tr.meanUS("core.HashKey"))
	r.writeSpans(tr)
	return nil
}

// loop runs passes over the six drivers, in an order drawn from rng, until
// the window has passed. Only whole passes count, so every window measures
// the same mix.
func (f *figures) loop(ctx context.Context, r *run, window time.Duration, rng *rand.Rand, tr *tracer) (figuresLoop, error) {
	var l figuresLoop
	order := append([]string(nil), figureDrivers...)
	deadline := time.Now().Add(window)
	for pass := int64(1); time.Now().Before(deadline); pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var cycles uint64
		var lightT, heavyT time.Duration
		var lightN int
		for _, name := range order {
			c0 := cpu.SimCyclesTotal()
			d, err := f.call(ctx, r, name, tr, pass)
			if err != nil {
				return l, err
			}
			cycles += cpu.SimCyclesTotal() - c0
			if name == "ipc" {
				l.heavy = append(l.heavy, d)
				heavyT += d
			} else {
				l.light = append(l.light, d)
				lightT += d
				lightN++
			}
		}
		l.simRate = append(l.simRate, float64(cycles)/1e6/(lightT+heavyT).Seconds())
		l.lightRate = append(l.lightRate, float64(lightN)/lightT.Seconds())
		l.heavyRate = append(l.heavyRate, 1/heavyT.Seconds())
	}
	return l, nil
}

// call runs one driver through server.Run, checks its output and returns
// the call's duration.
func (f *figures) call(ctx context.Context, r *run, name string, tr *tracer, pass int64) (time.Duration, error) {
	var res any
	var err error
	d := tr.do("server.Run", pass, 0, func() { res, err = server.Run(ctx, name, f.cfg, f.params, r.workers) })
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	body, err := server.Encode(res)
	if err != nil {
		return d, fmt.Errorf("%s: encode: %w", name, err)
	}
	sum := sha256.Sum256(body)
	if want, ok := f.want[name]; ok {
		r.check(sum == want, "%s output differs from the first run of this process", name)
		return d, nil
	}
	// First run of this driver: check the paper's outcome.
	f.want[name] = sum
	if v, ok := res.(server.IPCResponse); ok {
		f.fig7 = (v.MeanSpeedup - 1) * 100
	}
	r.check(paperOutcome(res, len(f.kernels)), "%s does not reproduce the paper's outcome", name)
	return d, nil
}

// paperOutcome checks one driver result against the paper.
func paperOutcome(res any, kernels int) bool {
	leaks := func(a core.AttackResult, want byte) bool {
		b, ok := a.LeakedByte()
		return ok && b == want
	}
	switch v := res.(type) {
	case server.IPCResponse:
		return len(v.Rows) == kernels && v.MeanSpeedup > 1
	case core.AttackResult: // Fig. 9 leaks secret byte 86
		return leaks(v, 86)
	case server.Fig10Response:
		return v.N1.N == 255 && v.N2.N > v.N1.N && v.N3.N > v.N1.N
	case core.Fig11Result: // beyond the ROB: only the runahead machine leaks
		return leaks(v.Runahead, 127) && !v.NoRunahead.Leaked
	case core.DefenseResult:
		return leaks(v.Vulnerable, 127) && !v.Secure.Leaked && !v.SkipINV.Leaked
	case server.VariantsResponse:
		for _, row := range v.Rows {
			if _, ok := row.Result.LeakedByte(); !ok {
				return false
			}
		}
		return len(v.Rows) == 6
	}
	return false
}

// digest is the sha256 over every driver's encoded output, in paper order.
func (f *figures) digest() string {
	h := sha256.New()
	for _, name := range figureDrivers {
		sum := f.want[name]
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
