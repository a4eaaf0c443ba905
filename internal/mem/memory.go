// Package mem models the memory subsystem of the simulated processor: a flat
// functional memory image (committed architectural state), the timing caches
// (L1I, L1D, unified L2 and L3 per Table 1 of the paper), a request-based
// contention model for main memory, and the runahead cache used to hold
// pseudo-retired store data during runahead mode.
//
// The design is a classic decoupled functional/timing split: caches track
// tags and fill timing only, while data values live in Memory (plus the store
// queues and the runahead cache inside the CPU model).  Cache fills survive
// pipeline squashes, which is exactly the transient-execution side channel
// SPECRUN exploits.
package mem

import (
	"bytes"
	"encoding/binary"
)

const pageSize = 1 << 12

type page [pageSize]byte

// Memory is a sparse, byte-addressable functional memory image.  It holds
// committed architectural state only; speculative stores are buffered in the
// CPU's store queue and runahead stores in the RunaheadCache.
type Memory struct {
	pages map[uint64]*page
	pool  []*page // zeroed pages released by Reset, reused by pageFor
}

// NewMemory returns an empty memory image.  Unwritten bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Reset empties the image for machine reuse.  Allocated pages move to a free
// list (zeroed), so a reused machine touching a similar footprint allocates
// nothing.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
		m.pool = append(m.pool, p)
	}
	clear(m.pages)
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	base := addr &^ (pageSize - 1)
	p := m.pages[base]
	if p == nil && create {
		if n := len(m.pool); n > 0 {
			p = m.pool[n-1]
			m.pool = m.pool[:n-1]
		} else {
			p = new(page)
		}
		m.pages[base] = p
	}
	return p
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%pageSize]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.pageFor(addr, true)[addr%pageSize] = b
}

// Read returns size bytes starting at addr as a little-endian integer.
// size must be 1..8.  Reading never allocates a page.
func (m *Memory) Read(addr uint64, size int) uint64 {
	var b [8]byte
	m.copyOut(b[:size], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.copyIn(addr, b[:size])
}

// ReadU64 reads a 64-bit little-endian word.
func (m *Memory) ReadU64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteU64 writes a 64-bit little-endian word.
func (m *Memory) WriteU64(addr uint64, v uint64) { m.Write(addr, 8, v) }

// SetBytes copies b into memory starting at addr.
func (m *Memory) SetBytes(addr uint64, b []byte) { m.copyIn(addr, b) }

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	b := make([]byte, n)
	m.copyOut(b, addr)
	return b
}

// ReadU64Slice reads n consecutive 64-bit words starting at addr.
func (m *Memory) ReadU64Slice(addr uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = m.ReadU64(addr + uint64(i)*8)
	}
	return out
}

// EqualRange reports whether the n bytes starting at addr hold the same
// values in m and o.  An absent page compares as all zero, so a page that
// was never written equals an allocated page of zeros.  When the ranges
// differ, firstDiffOff is the offset from addr of the first differing
// 8-byte word (words are counted from addr); when they are equal it is 0.
func (m *Memory) EqualRange(o *Memory, addr uint64, n int) (firstDiffOff int, equal bool) {
	for done := 0; done < n; {
		a := addr + uint64(done)
		k := min(pageSize-int(a%pageSize), n-done)
		x, y := m.span(a, k), o.span(a, k)
		if !bytes.Equal(x, y) {
			i := 0
			for x[i] == y[i] {
				i++
			}
			return (done + i) &^ 7, false
		}
		done += k
	}
	return 0, true
}

// zeroPage stands in for absent pages in EqualRange.
var zeroPage page

// span returns the k bytes at addr, which must not cross a page boundary,
// reading an absent page as zeros.
func (m *Memory) span(addr uint64, k int) []byte {
	p := m.pageFor(addr, false)
	if p == nil {
		p = &zeroPage
	}
	off := addr % pageSize
	return p[off : off+uint64(k)]
}

// copyOut fills dst from memory starting at addr, one page lookup per page
// spanned.  Absent pages read as zero and are not allocated.
func (m *Memory) copyOut(dst []byte, addr uint64) {
	for len(dst) > 0 {
		off := addr % pageSize
		var k int
		if p := m.pageFor(addr, false); p != nil {
			k = copy(dst, p[off:])
		} else {
			k = min(len(dst), int(pageSize-off))
			clear(dst[:k])
		}
		dst = dst[k:]
		addr += uint64(k)
	}
}

// copyIn stores src into memory starting at addr, one page lookup per page
// spanned.
func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		k := copy(m.pageFor(addr, true)[addr%pageSize:], src)
		src = src[k:]
		addr += uint64(k)
	}
}

// Footprint reports the number of allocated pages (for tests).
func (m *Memory) Footprint() int { return len(m.pages) }
