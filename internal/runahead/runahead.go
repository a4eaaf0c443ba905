// Package runahead defines the runahead-execution policies of the simulated
// processor: the configuration shared by all variants, the register
// dependence table used by Precise Runahead (Naithani et al., HPCA'20) to
// identify stall slices, and the stride detector used by Vector Runahead
// (Naithani et al., ISCA'21) to vectorise prefetches.
//
// §4.3 of the SPECRUN paper argues the attack applies to all three variants
// because each of them lets the branch predictor steer speculation past
// branches whose predicate depends on the stalling load.  The implementations
// here preserve exactly the properties that argument relies on.
package runahead

import (
	"fmt"
	"math/bits"

	"specrun/internal/isa"
	"specrun/internal/mem"
)

// Kind selects a runahead variant.
type Kind int

const (
	// KindNone disables runahead execution (the baseline machine).
	KindNone Kind = iota
	// KindOriginal is Mutlu et al.'s HPCA'03 scheme: on a memory-level load
	// miss at the ROB head the whole instruction stream pseudo-retires
	// speculatively with INV poison tracking.
	KindOriginal
	// KindPrecise executes only stall slices (load-address back-slices),
	// plus loads, stores and branches; everything else is dropped at
	// dispatch and its destination poisoned.
	KindPrecise
	// KindVector additionally vectorises strided loads: each load issues
	// VectorLanes-1 extra prefetch requests along its detected stride.
	KindVector
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindOriginal:
		return "original"
	case KindPrecise:
		return "precise"
	case KindVector:
		return "vector"
	}
	return "unknown"
}

// MarshalText renders the kind as its String form, so configurations
// serialise to stable, human-readable JSON ("original" rather than 1).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the String form.
func (k *Kind) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "none", "":
		*k = KindNone
	case "original":
		*k = KindOriginal
	case "precise":
		*k = KindPrecise
	case "vector":
		*k = KindVector
	default:
		return fmt.Errorf("runahead: unknown kind %q", s)
	}
	return nil
}

// Config parameterises the runahead controller.
type Config struct {
	Kind               Kind      `json:"kind"`
	TriggerLevel       mem.Level `json:"trigger_level"`        // miss depth that triggers entry (default: main memory)
	RunaheadCacheBytes int       `json:"runahead_cache_bytes"` // capacity of the runahead store cache
	ExitPenalty        int       `json:"exit_penalty"`         // cycles between exit and fetch restart
	VectorLanes        int       `json:"vector_lanes"`         // lanes for KindVector prefetching
	SkipINVBranch      bool      `json:"skip_inv_branch"`      // §6 alternative mitigation: stop speculation at INV branches
}

// DefaultConfig returns the original-runahead configuration used in the
// paper's evaluation: entry when a load that missed to main memory blocks
// the head of the reorder buffer ("the instruction window fills up and
// halts the pipeline", §2.1 — the window cannot retire past the load).
func DefaultConfig() Config {
	return Config{
		Kind:               KindOriginal,
		TriggerLevel:       mem.LevelMem,
		RunaheadCacheBytes: 512,
		ExitPenalty:        4,
		VectorLanes:        8,
	}
}

// RDT is the register dependence table that Precise Runahead uses to learn,
// during normal operation, which static instructions feed load addresses
// ("stall slices").  Learning is iterative: every committed load marks the
// producers of its address registers, and every committed instruction whose
// PC is already in a slice marks the producers of its own sources.  Over a
// few loop iterations this transitively closes over the address back-slice.
//
// Slice membership is a bitset indexed by instruction slot, sized for the
// program text [base, base+n*isa.InstBytes) given to NewRDT or Reset.  Only
// instructions of that text can join a slice; any other PC reads as outside.
type RDT struct {
	base  uint64
	n     uint64   // instruction slots covered by slice
	slice []uint64 // bit i set = the instruction at base+i*InstBytes is in a slice
	// lastWriter[regSlot(r)] is the PC of the most recent committed writer
	// of arch register r; it is meaningful only where the matching bit of
	// written is set, so Reset clears the mask rather than the table.
	lastWriter [rdtSlots]uint64
	written    [rdtSlots / 64]uint64
}

// rdtSlots covers every register class (ClassNone included, so the class
// indexes directly) times the largest register file.
const rdtSlots = 4 * isa.NumIntRegs

// regSlot maps a valid architectural register to its lastWriter index.
func regSlot(r isa.Reg) int { return int(r.Class())*isa.NumIntRegs + r.Idx() }

// NewRDT returns an empty table for the n-instruction program text at base.
func NewRDT(base uint64, n int) *RDT {
	r := &RDT{}
	r.Reset(base, n)
	return r
}

// Reset empties the table and sizes it for the n-instruction program text at
// base (machine reuse).  The bitset's storage is kept when it is large
// enough, so re-learning a program no longer than any before allocates
// nothing.
func (r *RDT) Reset(base uint64, n int) {
	words := (n + 63) / 64
	if cap(r.slice) >= words {
		r.slice = r.slice[:words]
		clear(r.slice)
	} else {
		r.slice = make([]uint64, words)
	}
	r.base, r.n = base, uint64(n)
	r.written = [rdtSlots / 64]uint64{}
}

// slot maps pc to its instruction slot; ok is false for a PC outside the
// program text or not on an instruction boundary.
func (r *RDT) slot(pc uint64) (i uint64, ok bool) {
	if pc < r.base || (pc-r.base)%isa.InstBytes != 0 {
		return 0, false
	}
	i = (pc - r.base) / isa.InstBytes
	return i, i < r.n
}

// InSlice reports whether the instruction at pc belongs to a stall slice.
func (r *RDT) InSlice(pc uint64) bool {
	i, ok := r.slot(pc)
	return ok && r.slice[i/64]&(1<<(i%64)) != 0
}

// Len reports the number of slice PCs learned.
func (r *RDT) Len() int {
	n := 0
	for _, w := range r.slice {
		n += bits.OnesCount64(w)
	}
	return n
}

// ObserveCommit learns from one committed instruction.  Call in program
// order during normal mode.
func (r *RDT) ObserveCommit(pc uint64, in isa.Inst) {
	var srcs [4]isa.Reg
	if in.Op.IsLoad() {
		// The producers of a load's address registers are slice members.
		r.markProducer(in.Rs1)
		if in.UsesIndex() {
			r.markProducer(in.Rs2)
		}
	} else if r.InSlice(pc) {
		// Slice membership propagates to the producers of slice inputs.
		for _, s := range in.SrcRegs(srcs[:0]) {
			r.markProducer(s)
		}
	}
	if d := in.Dest(); d.Valid() && !d.IsZero() {
		i := regSlot(d)
		r.lastWriter[i] = pc
		r.written[i/64] |= 1 << (i % 64)
	}
}

func (r *RDT) markProducer(reg isa.Reg) {
	if !reg.Valid() || reg.IsZero() {
		return
	}
	if i := regSlot(reg); r.written[i/64]&(1<<(i%64)) != 0 {
		if s, ok := r.slot(r.lastWriter[i]); ok {
			r.slice[s/64] |= 1 << (s % 64)
		}
	}
}

// StrideDetector learns per-PC load strides for Vector Runahead.  Entries
// are stored by value so that Reset (which clears the map but keeps its
// buckets) makes re-learning allocation-free.
type StrideDetector struct {
	m map[uint64]strideEntry
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int
}

// NewStrideDetector returns an empty detector.
func NewStrideDetector() *StrideDetector {
	return &StrideDetector{m: make(map[uint64]strideEntry)}
}

// Reset empties the detector (machine reuse), retaining map storage.
func (d *StrideDetector) Reset() {
	clear(d.m)
}

// confThreshold is the number of consecutive identical strides required
// before Predict reports confidence.
const confThreshold = 2

// Observe records a committed load's effective address.
func (d *StrideDetector) Observe(pc, addr uint64) {
	e, ok := d.m[pc]
	if !ok {
		d.m[pc] = strideEntry{lastAddr: addr}
		return
	}
	s := int64(addr - e.lastAddr)
	if s == e.stride && s != 0 {
		if e.conf < confThreshold {
			e.conf++
		}
	} else {
		e.stride = s
		e.conf = 0
	}
	e.lastAddr = addr
	d.m[pc] = e
}

// Predict returns the learned stride for pc if confident.
func (d *StrideDetector) Predict(pc uint64) (stride int64, ok bool) {
	e, present := d.m[pc]
	if !present || e.conf < confThreshold || e.stride == 0 {
		return 0, false
	}
	return e.stride, true
}
