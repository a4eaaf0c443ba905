package difftest

import (
	"context"
	"strings"
	"testing"

	"specrun/internal/isa"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// The interleave oracle on a healthy tree: A, B, A′ on one reused machine
// must be identical across the full configuration matrix.
func TestInterleaveClean(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.Gadgets = true
	cfgs := Matrix(true)
	for seed := int64(1); seed <= 5; seed++ {
		res := CheckInterleave(seed, opt, cfgs)
		for _, d := range res.Divergences {
			t.Errorf("seed %d, %s: [%s] %s", d.Seed, d.Config, d.Kind, d.Detail)
		}
		if len(res.PerConfig) != len(cfgs) {
			t.Fatalf("seed %d: %d per-config rows, want %d", seed, len(res.PerConfig), len(cfgs))
		}
	}
}

// An interleave campaign through the standard runner: spec-driven, sharded,
// deterministic, and clean.
func TestInterleaveCampaign(t *testing.T) {
	spec := CampaignSpec{Seeds: 20, Interleave: true}
	rep, err := Run(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("interleave campaign found leaks: %+v", rep.Divergences)
	}
	if rep.Runs != 20*rep.Configs {
		t.Fatalf("runs = %d, want %d", rep.Runs, 20*rep.Configs)
	}
}

// The oracle must actually detect leaks: snapshots that differ in any
// compared dimension produce a state_leak divergence description.
func TestInterleaveDetectsDifferences(t *testing.T) {
	a := machineSnapshot{recs: []record{{pc: 0x40, op: isa.ADD, dest: isa.R(1), v: 1}}}
	b := machineSnapshot{recs: []record{{pc: 0x40, op: isa.ADD, dest: isa.R(1), v: 2}}}
	if d := diffSnapshots(a, b); !strings.Contains(d, "commit stream") {
		t.Fatalf("stream diff not detected: %q", d)
	}
	b = a
	b.recs = append([]record(nil), a.recs...)
	b.stats.Cycles = 7
	if d := diffSnapshots(a, b); !strings.Contains(d, "stats") {
		t.Fatalf("stats diff not detected: %q", d)
	}
	b.stats.Cycles = a.stats.Cycles
	b.ints[3] = 9
	if d := diffSnapshots(a, b); !strings.Contains(d, "register") {
		t.Fatalf("register diff not detected: %q", d)
	}
	b.ints[3] = a.ints[3]
	a.mem = []uint64{1, 2}
	b.mem = []uint64{1, 3}
	if d := diffSnapshots(a, b); !strings.Contains(d, "memory") {
		t.Fatalf("memory diff not detected: %q", d)
	}
}
