package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMem is the byte-at-a-time reference model for Memory: a sparse byte
// map plus the set of pages any write touched.
type refMem struct {
	b     map[uint64]byte
	pages map[uint64]bool
}

func newRefMem() *refMem {
	return &refMem{b: make(map[uint64]byte), pages: make(map[uint64]bool)}
}

func (r *refMem) set(a uint64, x byte) {
	r.b[a] = x
	r.pages[a&^(pageSize-1)] = true
}

func (r *refMem) read(a uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(r.b[a+uint64(i)]) << (8 * i)
	}
	return v
}

func (r *refMem) write(a uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		r.set(a+uint64(i), byte(v>>(8*i)))
	}
}

func (r *refMem) setBytes(a uint64, b []byte) {
	for i, x := range b {
		r.set(a+uint64(i), x)
	}
}

func (r *refMem) readBytes(a uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.b[a+uint64(i)]
	}
	return out
}

// refEqualRange walks the range word by word, as the pre-page oracle did.
func refEqualRange(x, y *refMem, addr uint64, n int) (int, bool) {
	for off := 0; off < n; off += 8 {
		for i := off; i < min(off+8, n); i++ {
			if a := addr + uint64(i); x.b[a] != y.b[a] {
				return off, false
			}
		}
	}
	return 0, true
}

// randAddr draws addresses clustered near page boundaries in a few regions,
// including the top of the address space so wrap-around is exercised.
func randAddr(rng *rand.Rand) uint64 {
	bases := []uint64{0, 0x1000, 0x7000, 1 << 40, ^uint64(0) - 3*pageSize + 1}
	base := bases[rng.Intn(len(bases))]
	if rng.Intn(2) == 0 {
		return base + uint64(rng.Intn(3))*pageSize + pageSize - 1 - uint64(rng.Intn(16))
	}
	return base + uint64(rng.Intn(3*pageSize))
}

func TestMemoryMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, ref := NewMemory(), newRefMem()
	for step := 0; step < 6000; step++ {
		a := randAddr(rng)
		switch rng.Intn(5) {
		case 0:
			size, v := 1+rng.Intn(8), rng.Uint64()
			m.Write(a, size, v)
			ref.write(a, size, v)
		case 1:
			size := 1 + rng.Intn(8)
			if got, want := m.Read(a, size), ref.read(a, size); got != want {
				t.Fatalf("step %d: Read(%#x, %d) = %#x, want %#x", step, a, size, got, want)
			}
		case 2:
			b := make([]byte, rng.Intn(pageSize+64))
			rng.Read(b)
			m.SetBytes(a, b)
			ref.setBytes(a, b)
		case 3:
			n := rng.Intn(pageSize + 64)
			if got, want := m.ReadBytes(a, n), ref.readBytes(a, n); !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) differs from reference", step, a, n)
			}
		case 4:
			if got, want := m.ByteAt(a), ref.b[a]; got != want {
				t.Fatalf("step %d: ByteAt(%#x) = %#x, want %#x", step, a, got, want)
			}
		}
		if got, want := m.Footprint(), len(ref.pages); got != want {
			t.Fatalf("step %d: Footprint = %d, want %d", step, got, want)
		}
	}
}

// Every access that straddles a page boundary: offsets 4089–4095 of a page
// with sizes 1–8, written and read back against the reference, each on a
// fresh image so the page allocation count is checked too.
func TestMemoryPageCrossing(t *testing.T) {
	const page = 0x5000
	for off := uint64(pageSize - 7); off < pageSize; off++ {
		for size := 1; size <= 8; size++ {
			a := page + off
			m, ref := NewMemory(), newRefMem()
			// Reading first: the second page is absent and reads as zero.
			if got := m.Read(a, size); got != 0 {
				t.Fatalf("fresh Read(%#x, %d) = %#x, want 0", a, size, got)
			}
			v := uint64(0x8877665544332211)
			m.Write(a, size, v)
			ref.write(a, size, v)
			if got, want := m.Footprint(), len(ref.pages); got != want {
				t.Fatalf("Write(%#x, %d): Footprint = %d, want %d", a, size, got, want)
			}
			for rs := 1; rs <= 8; rs++ {
				if got, want := m.Read(a, rs), ref.read(a, rs); got != want {
					t.Fatalf("after Write(%#x, %d): Read(%#x, %d) = %#x, want %#x", a, size, a, rs, got, want)
				}
			}
			if got, want := m.ReadBytes(page, 2*pageSize), ref.readBytes(page, 2*pageSize); !bytes.Equal(got, want) {
				t.Fatalf("after Write(%#x, %d): page contents differ from reference", a, size)
			}
		}
	}
}

func TestMemoryReadAbsentAllocatesNothing(t *testing.T) {
	m := NewMemory()
	if m.ReadU64(0x9000) != 0 || m.Read(0x9ffd, 8) != 0 || m.ByteAt(0x123456) != 0 {
		t.Fatal("absent pages must read zero")
	}
	if b := m.ReadBytes(0xa000-5, 3*pageSize); !bytes.Equal(b, make([]byte, 3*pageSize)) {
		t.Fatal("ReadBytes over absent pages must return zeros")
	}
	if _, eq := m.EqualRange(NewMemory(), 0x9000, 3*pageSize); !eq {
		t.Fatal("two empty images must compare equal")
	}
	if n := m.Footprint(); n != 0 {
		t.Fatalf("reads allocated %d pages, want 0", n)
	}
	// A read straddling a present page and an absent one allocates nothing
	// either.
	m.WriteU64(0xaff8, 0x0102030405060708)
	if got := m.Read(0xaffc, 8); got != 0x01020304 {
		t.Fatalf("straddling read = %#x, want 0x1020304", got)
	}
	if n := m.Footprint(); n != 1 {
		t.Fatalf("Footprint = %d, want 1", n)
	}
}

func TestEqualRange(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	// An allocated all-zero page equals an absent one, in both directions.
	b.WriteU64(0x2000, 0)
	if b.Footprint() != 1 {
		t.Fatal("zero write must allocate the page")
	}
	if _, eq := a.EqualRange(b, 0x1800, 3*pageSize); !eq {
		t.Fatal("absent page != allocated zero page")
	}
	if _, eq := b.EqualRange(a, 0x1800, 3*pageSize); !eq {
		t.Fatal("allocated zero page != absent page")
	}
	// The reported offset is that of the first differing word, counted from
	// addr (not from an aligned base), across a page boundary.
	b.SetByte(0x3002, 7)
	b.SetByte(0x4000, 9)
	const addr = 0x2ffb
	if off, eq := a.EqualRange(b, addr, 64); eq || off != 0 {
		t.Fatalf("EqualRange = (%d, %v), want (0, false)", off, eq)
	}
	if off, eq := a.EqualRange(b, addr+8, 0x1000); eq || off != 0xff8 {
		t.Fatalf("EqualRange = (%#x, %v), want (0xff8, false)", off, eq)
	}
	// A difference just past the range is not reported.
	if _, eq := a.EqualRange(b, 0x3003, 0xffd); !eq {
		t.Fatal("difference outside the range reported")
	}
}

func TestEqualRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		x, y := NewMemory(), NewMemory()
		rx, ry := newRefMem(), newRefMem()
		// Identical content, then a few scattered edits on one side (some of
		// them writing zeros, which allocate pages without changing values).
		for i := 0; i < 4; i++ {
			a := 0x10000 + uint64(rng.Intn(4*pageSize))
			b := make([]byte, rng.Intn(300))
			rng.Read(b)
			x.SetBytes(a, b)
			y.SetBytes(a, b)
			rx.setBytes(a, b)
			ry.setBytes(a, b)
		}
		for i := rng.Intn(3); i > 0; i-- {
			a, v := 0x10000+uint64(rng.Intn(4*pageSize)), byte(rng.Intn(2)*rng.Intn(256))
			y.SetByte(a, v)
			ry.set(a, v)
		}
		addr := 0x10000 + uint64(rng.Intn(pageSize))
		n := rng.Intn(3 * pageSize)
		gotOff, gotEq := x.EqualRange(y, addr, n)
		wantOff, wantEq := refEqualRange(rx, ry, addr, n)
		if gotOff != wantOff || gotEq != wantEq {
			t.Fatalf("trial %d: EqualRange(%#x, %d) = (%#x, %v), want (%#x, %v)",
				trial, addr, n, gotOff, gotEq, wantOff, wantEq)
		}
	}
}
