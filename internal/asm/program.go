// Package asm provides the tooling for writing programs for the simulated
// processor: an in-memory program representation, a fluent builder API used
// by the attack-gadget and workload generators, and a two-pass text
// assembler for hand-written programs.
package asm

import (
	"fmt"

	"specrun/internal/isa"
	"specrun/internal/mem"
)

// Segment is a chunk of initialised data.
type Segment struct {
	Addr uint64
	Data []byte
}

// Program is an assembled program: decoded instructions at Base, initialised
// data segments, and a symbol table.  A Program must not change once it is
// handed to a simulator: machines cache per-instruction state keyed by the
// *Program and reuse it across resets onto the same program.
type Program struct {
	Base     uint64
	Insts    []isa.Inst
	Segments []Segment
	Symbols  map[string]uint64
}

// InstAt returns the instruction at pc, if pc lies inside the program text
// and is instruction-aligned.
func (p *Program) InstAt(pc uint64) (isa.Inst, bool) {
	if pc < p.Base || (pc-p.Base)%isa.InstBytes != 0 {
		return isa.Inst{}, false
	}
	idx := (pc - p.Base) / isa.InstBytes
	if idx >= uint64(len(p.Insts)) {
		return isa.Inst{}, false
	}
	return p.Insts[idx], true
}

// End returns the first byte address past the program text.
func (p *Program) End() uint64 {
	return p.Base + uint64(len(p.Insts))*isa.InstBytes
}

// Sym looks up a symbol.
func (p *Program) Sym(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSym looks up a symbol and panics if it is undefined.  Experiment
// drivers use it for addresses they themselves defined.
func (p *Program) MustSym(name string) uint64 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// LoadInto writes the program's data segments into a memory image.
// Instruction memory is fetched from the Program directly (decoupled
// functional/timing model), so text is not copied.
func (p *Program) LoadInto(m *mem.Memory) {
	for _, s := range p.Segments {
		m.SetBytes(s.Addr, s.Data)
	}
}
