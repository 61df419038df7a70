package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.LoadByte(0x12345); got != 0 {
		t.Errorf("untouched byte = %d, want 0", got)
	}
	if got := m.ReadUint(0xFFFF0, 8); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
}

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(42, 0xAB)
	if got := m.LoadByte(42); got != 0xAB {
		t.Errorf("got %#x, want 0xAB", got)
	}
}

func TestBigEndianLayout(t *testing.T) {
	m := New()
	m.WriteUint(0x100, 4, 0x11223344)
	want := []byte{0x11, 0x22, 0x33, 0x44}
	if got := m.Read(0x100, 4); !bytes.Equal(got, want) {
		t.Errorf("bytes = %x, want %x (big-endian)", got, want)
	}
}

func TestSignExtension(t *testing.T) {
	m := New()
	m.WriteInt(0, 2, -3)
	if got := m.ReadInt(0, 2); got != -3 {
		t.Errorf("ReadInt 2 = %d, want -3", got)
	}
	if got := m.ReadUint(0, 2); got != 0xFFFD {
		t.Errorf("ReadUint 2 = %#x, want 0xfffd", got)
	}
	m.WriteInt(8, 1, -128)
	if got := m.ReadInt(8, 1); got != -128 {
		t.Errorf("ReadInt 1 = %d, want -128", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	m.WriteUint(addr, 8, 0x0102030405060708)
	if got := m.ReadUint(addr, 8); got != 0x0102030405060708 {
		t.Errorf("cross-page read = %#x", got)
	}
}

// TestUintAccessAroundPageBoundary holds the one-lookup fast path and
// the page-crossing byte loop to the same byte-wise reference: at every
// offset from well inside a page to well inside the next, at sizes
// 1/2/4/8, a write lays its bytes big-endian exactly where StoreByte
// would, touches nothing around them, and reads back.
func TestUintAccessAroundPageBoundary(t *testing.T) {
	const v = 0x0102030405060708
	for _, size := range []int{1, 2, 4, 8} {
		for addr := uint64(pageSize - 9); addr <= pageSize+1; addr++ {
			m := New()
			m.StoreByte(addr-1, 0xEE)
			m.StoreByte(addr+uint64(size), 0xEE)
			m.WriteUint(addr, size, v)
			want := uint64(v) & (1<<(8*size) - 1) // a 64-bit shift leaves the all-ones mask
			for i := 0; i < size; i++ {
				if got, w := m.LoadByte(addr+uint64(i)), byte(want>>(8*(size-1-i))); got != w {
					t.Fatalf("size %d at %#x: byte %d = %#x, want %#x", size, addr, i, got, w)
				}
			}
			if m.LoadByte(addr-1) != 0xEE || m.LoadByte(addr+uint64(size)) != 0xEE {
				t.Fatalf("size %d at %#x: write spilled onto a neighbour", size, addr)
			}
			if got := m.ReadUint(addr, size); got != want {
				t.Fatalf("size %d at %#x: read %#x, want %#x", size, addr, got, want)
			}
		}
	}
}

// TestUntouchedPagesReadZero: a read allocates nothing, whether it
// falls inside an untouched page or straddles into one.
func TestUntouchedPagesReadZero(t *testing.T) {
	m := New()
	m.WriteUint(pageSize-4, 4, 0xAABBCCDD) // the page below the boundary exists
	for _, size := range []int{1, 2, 4, 8} {
		if got := m.ReadUint(5*pageSize+16, size); got != 0 {
			t.Errorf("size %d read of an untouched page = %#x", size, got)
		}
	}
	if got := m.ReadUint(pageSize-4, 8); got != 0xAABBCCDD00000000 {
		t.Errorf("read straddling into an untouched page = %#x", got)
	}
	if m.Footprint() != pageSize {
		t.Errorf("reads allocated pages: footprint %d, want one page", m.Footprint())
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		m.WriteUint(uint64(addr), size, v)
		return m.ReadUint(uint64(addr), size) == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint16, v int32) bool {
		m.WriteInt(uint64(addr), 4, int64(v))
		return m.ReadInt(uint64(addr), 4) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteRead(t *testing.T) {
	m := New()
	data := []byte("ACDEFGHIKLMNPQRSTVWY")
	m.Write(0x500, data)
	if got := m.Read(0x500, len(data)); !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Errorf("empty footprint = %d", m.Footprint())
	}
	m.StoreByte(0, 1)
	m.StoreByte(pageSize*10, 1)
	if got := m.Footprint(); got != 2*pageSize {
		t.Errorf("footprint = %d, want %d", got, 2*pageSize)
	}
	// Reads must not allocate.
	m.LoadByte(pageSize * 20)
	if got := m.Footprint(); got != 2*pageSize {
		t.Errorf("footprint after read = %d, want %d", got, 2*pageSize)
	}
}

func TestLayoutAlloc(t *testing.T) {
	l := NewLayout(0x1000, 0x1000)
	a := l.Alloc(10, 8)
	if a != 0x1000 {
		t.Errorf("first alloc = %#x", a)
	}
	b := l.Alloc(1, 64)
	if b%64 != 0 || b < a+10 {
		t.Errorf("second alloc = %#x, want 64-aligned beyond %#x", b, a+10)
	}
}

func TestLayoutExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	l := NewLayout(0, 16)
	l.Alloc(32, 1)
}
