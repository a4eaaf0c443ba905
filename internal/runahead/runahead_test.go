package runahead

import (
	"testing"

	"specrun/internal/isa"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindNone: "none", KindOriginal: "original", KindPrecise: "precise", KindVector: "vector"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// The RDT must learn a load-address back-slice over repeated commits, as
// Precise Runahead's pre-execution requires.
func TestRDTLearnsAddressSlice(t *testing.T) {
	r := NewRDT(100, 3)
	// Loop body:
	//   pc=100: addi r2, r1, 8      (address compute, in slice)
	//   pc=104: mul  r3, r4, r5     (unrelated compute, not in slice)
	//   pc=108: ld   r6, [r2+0]     (the load)
	body := []struct {
		pc uint64
		in isa.Inst
	}{
		{100, isa.Inst{Op: isa.ADDI, Rd: isa.R(2), Rs1: isa.R(1), Imm: 8}},
		{104, isa.Inst{Op: isa.MUL, Rd: isa.R(3), Rs1: isa.R(4), Rs2: isa.R(5)}},
		{108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)}},
	}
	for iter := 0; iter < 3; iter++ {
		for _, s := range body {
			r.ObserveCommit(s.pc, s.in)
		}
	}
	if !r.InSlice(100) {
		t.Error("address producer must be in the stall slice")
	}
	if r.InSlice(104) {
		t.Error("unrelated compute must not be in the stall slice")
	}
	if r.InSlice(108) {
		t.Error("the load itself is not recorded (loads always execute in PRE mode)")
	}
}

// Transitive closure: producers of slice instructions join the slice on
// later iterations.
func TestRDTTransitiveClosure(t *testing.T) {
	r := NewRDT(100, 3)
	body := []struct {
		pc uint64
		in isa.Inst
	}{
		{100, isa.Inst{Op: isa.SHLI, Rd: isa.R(1), Rs1: isa.R(9), Imm: 3}}, // feeds 104
		{104, isa.Inst{Op: isa.ADD, Rd: isa.R(2), Rs1: isa.R(1), Rs2: isa.R(3)}},
		{108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)}},
	}
	for iter := 0; iter < 4; iter++ {
		for _, s := range body {
			r.ObserveCommit(s.pc, s.in)
		}
	}
	if !r.InSlice(104) || !r.InSlice(100) {
		t.Fatalf("slice = {100:%v 104:%v}, want both", r.InSlice(100), r.InSlice(104))
	}
	if r.Len() != 2 {
		t.Fatalf("slice size = %d, want 2", r.Len())
	}
}

func TestRDTIgnoresZeroRegister(t *testing.T) {
	r := NewRDT(100, 2)
	r.ObserveCommit(100, isa.Inst{Op: isa.MOVI, Rd: isa.R(0), Imm: 1})
	r.ObserveCommit(104, isa.Inst{Op: isa.LD, Rd: isa.R(1), Rs1: isa.R(0)})
	if r.Len() != 0 {
		t.Fatal("r0 must not produce slice members")
	}
}

// Last writers are tracked per register class, and Reset forgets them: a
// load after Reset must not mark a producer committed before it.  Only
// instructions of the program text the table was sized for can join a
// slice, and a Reset onto a longer program covers the whole new text.
func TestRDTClassesAndReset(t *testing.T) {
	r := NewRDT(100, 3)
	r.ObserveCommit(100, isa.Inst{Op: isa.MOVI, Rd: isa.R(2), Imm: 1})
	r.ObserveCommit(104, isa.Inst{Op: isa.FADD, Rd: isa.F(2), Rs1: isa.F(0), Rs2: isa.F(1)})
	r.ObserveCommit(108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)})
	if !r.InSlice(100) || r.InSlice(104) || r.Len() != 1 {
		t.Fatalf("slice = {100:%v 104:%v} len %d, want only the r2 writer", r.InSlice(100), r.InSlice(104), r.Len())
	}

	// A writer outside the text [100, 112) never joins the slice, and
	// out-of-text or misaligned PCs read as outside it.
	for _, pc := range []uint64{112, 400} {
		r.ObserveCommit(pc, isa.Inst{Op: isa.MOVI, Rd: isa.R(3), Imm: 1})
		r.ObserveCommit(108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(3)})
		if r.InSlice(pc) || r.Len() != 1 {
			t.Fatalf("out-of-text writer: InSlice(%d) = %v, len %d; want false, 1", pc, r.InSlice(pc), r.Len())
		}
	}
	for _, pc := range []uint64{0, 96, 101, 112, 1 << 40} {
		if r.InSlice(pc) {
			t.Errorf("InSlice(%d) = true for a PC outside the text", pc)
		}
	}

	r.Reset(100, 3)
	r.ObserveCommit(108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)})
	if r.Len() != 0 {
		t.Fatalf("slice after Reset has %d entries, want 0", r.Len())
	}

	// Reset onto a longer program: slots past the old bitset's end learn.
	const n = 200
	r.Reset(100, n)
	last := uint64(100 + (n-1)*isa.InstBytes)
	r.ObserveCommit(last-isa.InstBytes, isa.Inst{Op: isa.MOVI, Rd: isa.R(4), Imm: 1})
	r.ObserveCommit(last, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(4)})
	if !r.InSlice(last-isa.InstBytes) || r.Len() != 1 {
		t.Fatalf("longer program: InSlice(%d) = %v, len %d; want true, 1", last-isa.InstBytes, r.InSlice(last-isa.InstBytes), r.Len())
	}
	if r.InSlice(last + isa.InstBytes) {
		t.Fatal("PC one past the longer text reads as in the slice")
	}
}

func TestStrideDetector(t *testing.T) {
	d := NewStrideDetector()
	pc := uint64(0x100)
	if _, ok := d.Predict(pc); ok {
		t.Fatal("cold detector must not predict")
	}
	for i := uint64(0); i < 4; i++ {
		d.Observe(pc, 0x1000+i*64)
	}
	stride, ok := d.Predict(pc)
	if !ok || stride != 64 {
		t.Fatalf("stride = %d,%v want 64", stride, ok)
	}
	// A stride break resets confidence.
	d.Observe(pc, 0x9999)
	if _, ok := d.Predict(pc); ok {
		t.Fatal("stride break must clear confidence")
	}
}

func TestStrideDetectorZeroStride(t *testing.T) {
	d := NewStrideDetector()
	for i := 0; i < 5; i++ {
		d.Observe(0x100, 0x1000) // same address repeatedly
	}
	if _, ok := d.Predict(0x100); ok {
		t.Fatal("zero stride must not be predicted (nothing to prefetch)")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Kind != KindOriginal || cfg.RunaheadCacheBytes != 512 || cfg.VectorLanes != 8 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}
