package leak

import (
	"testing"

	"specrun/internal/difftest"
)

// BenchmarkCheckSeed runs the quick-matrix leak oracle over a fixed seed
// range, one seed per iteration, so the per-seed path (generate, the
// sequential baseline, two resets and runs per configuration) can be
// profiled directly:
//
//	go test -run '^$' -bench CheckSeed -cpuprofile cpu.out ./internal/leak/
func BenchmarkCheckSeed(b *testing.B) {
	opt := Options(difftest.CampaignSpec{})
	cfgs := difftest.Matrix(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CheckSeed(int64(1+i%64), opt, cfgs)
	}
}
