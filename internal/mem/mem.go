// Package mem provides the sparse, big-endian simulated memory used by
// the functional machine and the cache model.  PowerPC is big-endian,
// and the loaders/stores here follow that convention so memory images
// match what a real POWER5 would see.
package mem

import (
	"fmt"

	"bioperf5/internal/telemetry"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse paged byte-addressable memory.  Pages are allocated
// on first touch; reads of untouched memory return zero.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns n bytes starting at addr (big-endian order is a property
// of the multi-byte accessors, not of Read, which is a raw byte copy).
func (m *Memory) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// Write copies b into memory starting at addr.
func (m *Memory) Write(addr uint64, b []byte) {
	for i, v := range b {
		m.StoreByte(addr+uint64(i), v)
	}
}

// ReadUint reads an unsigned big-endian integer of size 1, 2, 4 or 8.
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) > pageSize {
		// The access straddles two pages: go byte by byte.
		var v uint64
		for i := 0; i < size; i++ {
			v = v<<8 | uint64(m.LoadByte(addr+uint64(i)))
		}
		return v
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	var v uint64
	for _, b := range p[off : off+uint64(size)] {
		v = v<<8 | uint64(b)
	}
	return v
}

// WriteUint writes an unsigned big-endian integer of size 1, 2, 4 or 8.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	off := addr & pageMask
	if off+uint64(size) > pageSize {
		for i := size - 1; i >= 0; i-- {
			m.StoreByte(addr+uint64(i), byte(v))
			v >>= 8
		}
		return
	}
	b := m.page(addr, true)[off : off+uint64(size)]
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// ReadInt reads a sign-extended big-endian integer of size 1, 2, 4 or 8.
func (m *Memory) ReadInt(addr uint64, size int) int64 {
	u := m.ReadUint(addr, size)
	shift := uint(64 - 8*size)
	return int64(u<<shift) >> shift
}

// WriteInt writes the low size bytes of v big-endian.
func (m *Memory) WriteInt(addr uint64, size int, v int64) {
	m.WriteUint(addr, size, uint64(v))
}

// Footprint returns the number of bytes in allocated pages.
func (m *Memory) Footprint() int { return len(m.pages) * pageSize }

// PublishTo mirrors the memory image's footprint into reg.
func (m *Memory) PublishTo(reg *telemetry.Registry) {
	reg.Gauge("mem.pages").Set(float64(len(m.pages)))
	reg.Gauge("mem.footprint_bytes").Set(float64(m.Footprint()))
}

// Layout hands out non-overlapping regions of the address space; it is
// how kernel marshaling carves out argument buffers, matrices and the
// stack without clashing.
type Layout struct {
	next  uint64
	limit uint64
}

// NewLayout returns a layout allocating addresses in [base, base+size).
func NewLayout(base, size uint64) *Layout {
	return &Layout{next: base, limit: base + size}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the base address.  It panics when the region is exhausted, which in
// this codebase indicates a programming error in a kernel marshaller.
func (l *Layout) Alloc(n uint64, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	addr := (l.next + align - 1) &^ (align - 1)
	if addr+n > l.limit {
		panic(fmt.Sprintf("mem: layout exhausted: need %d bytes at %#x, limit %#x", n, addr, l.limit))
	}
	l.next = addr + n
	return addr
}

// StoreBytes writes a byte slice (e.g. an encoded sequence) at addr.
func (m *Memory) StoreBytes(addr uint64, b []byte) { m.Write(addr, b) }
