package difftest

import (
	"testing"

	"specrun/internal/proggen"
)

// BenchmarkCheckSeed runs the quick-matrix oracle over a fixed seed range,
// one seed per iteration, so the per-seed path (generate, reset, program
// load, both streams, final-state comparison) can be profiled directly:
//
//	go test -run '^$' -bench CheckSeed -cpuprofile cpu.out ./internal/difftest/
func BenchmarkCheckSeed(b *testing.B) {
	opt := proggen.DefaultOptions()
	cfgs := Matrix(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := CheckSeed(int64(1+i%64), opt, cfgs); len(res.Divergences) > 0 {
			b.Fatalf("seed %d: %+v", res.Seed, res.Divergences[0])
		}
	}
}
