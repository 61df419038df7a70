package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{POWER5L1D(), POWER5L2(),
		{Name: "tiny", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLatency: 1}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", c.Name, err)
		}
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "npot-line", SizeBytes: 1024, LineBytes: 48, Assoc: 2},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Assoc: 2},
		{Name: "npot-sets", SizeBytes: 64 * 3 * 2, LineBytes: 64, Assoc: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(POWER5L1D())
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1000 + 64) { // same 128B line
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 64B lines, 2 sets = 256B total.
	c := MustNew(Config{Name: "t", SizeBytes: 256, LineBytes: 64, Assoc: 2, HitLatency: 1})
	// Three lines mapping to set 0 (stride = lineBytes*nsets = 128).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	if c.Access(d) {
		t.Error("conflicting line hit unexpectedly")
	}
	if !c.Contains(a) {
		t.Error("MRU line was evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived eviction")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 256, LineBytes: 64, Assoc: 2, HitLatency: 1})
	c.Access(0)
	before := c.Stats()
	c.Contains(0)
	c.Contains(1 << 20)
	if c.Stats() != before {
		t.Error("Contains changed counters")
	}
}

func TestSetIndexing(t *testing.T) {
	// Addresses in different sets must not conflict.
	c := MustNew(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitLatency: 1})
	// 4 sets; fill set 0 and set 1 fully; all should coexist.
	addrs := []uint64{0, 256, 64, 320} // two lines per set for sets 0 and 1
	for _, a := range addrs {
		c.Access(a)
	}
	for _, a := range addrs {
		if !c.Contains(a) {
			t.Errorf("addr %#x evicted despite capacity", a)
		}
	}
}

func TestMissRateSequentialVsRandom(t *testing.T) {
	// Sequential byte-stride access to a large array: miss once per
	// line => rate ~ 1/lineBytes.  This is the paper's Table I
	// scenario: DP kernels stream rows with high locality.
	c := MustNew(POWER5L1D())
	const n = 1 << 16
	for i := 0; i < n; i++ {
		c.Access(uint64(i))
	}
	rate := c.Stats().MissRate()
	want := 1.0 / 128
	if rate < want*0.9 || rate > want*1.1 {
		t.Errorf("sequential miss rate = %.4f, want about %.4f", rate, want)
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := MustNew(POWER5L1D())
	// Touch a 16KB working set repeatedly: after the cold pass, no
	// misses.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 16<<10; a += 128 {
			c.Access(a)
		}
	}
	s := c.Stats()
	if s.Misses != 128 { // 16KB / 128B cold misses only
		t.Errorf("misses = %d, want 128 (cold only)", s.Misses)
	}
}

func TestQuickHitAfterAccess(t *testing.T) {
	c := MustNew(POWER5L1D())
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Access(addr) // immediately re-accessed line must hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOccupancyBounded(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 4, HitLatency: 1}
	c := MustNew(cfg)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		// Invariant: lines resident <= capacity. Count via Contains on
		// all touched lines.
		resident := 0
		seen := map[uint64]bool{}
		for _, a := range addrs {
			l := uint64(a) >> 6
			if !seen[l] {
				seen[l] = true
				if c.Contains(uint64(a)) {
					resident++
				}
			}
		}
		return resident <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(POWER5L1D())
	c.Access(0x40)
	c.Reset()
	if c.Contains(0x40) {
		t.Error("line survived Reset")
	}
	if c.Stats() != (Stats{}) {
		t.Error("stats survived Reset")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewPOWER5Hierarchy()
	l1 := h.L1.Config().HitLatency
	l2 := h.L2.Config().HitLatency

	if got, level := h.Access(0x1234); got != h.MemLatency || level != 2 {
		t.Errorf("cold access = (%d, level %d), want (%d, level 2)", got, level, h.MemLatency)
	}
	if got, level := h.Access(0x1234); got != l1 || level != 0 {
		t.Errorf("hot access = (%d, level %d), want (%d, level 0)", got, level, l1)
	}
	// Evict from L1 (fill its set) but keep in L2, then expect L2 latency.
	base := uint64(0x1234)
	l1cfg := h.L1.Config()
	setStride := uint64(l1cfg.SizeBytes / l1cfg.Assoc)
	for i := 1; i <= l1cfg.Assoc; i++ {
		h.Access(base + uint64(i)*setStride)
	}
	if h.L1.Contains(base) {
		t.Fatal("test setup failed to evict line from L1")
	}
	if got, level := h.Access(base); got != l2 || level != 1 {
		t.Errorf("L2 hit = (%d, level %d), want (%d, level 1)", got, level, l2)
	}
}

// TestHierarchyLevelMatchesCounters: the level Access returns is what
// the per-cache miss counters say happened — the trace capturer and the
// coupled timing model rely on it instead of diffing Stats.
func TestHierarchyLevelMatchesCounters(t *testing.T) {
	h := NewPOWER5Hierarchy()
	rng := rand.New(rand.NewSource(4))
	seen := [3]int{}
	for i := 0; i < 200_000; i++ {
		// A hot 16KB region, a 512KB region that overflows L1 but not
		// L2, and a 64MB region that overflows both.
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = uint64(rng.Intn(16 << 10))
		case 1:
			addr = 1<<24 + uint64(rng.Intn(512<<10))
		default:
			addr = 1<<28 + uint64(rng.Intn(64<<20))
		}
		l1, l2 := h.L1.Stats(), h.L2.Stats()
		lat, level := h.Access(addr)
		want := 0
		if h.L1.Stats().Misses > l1.Misses {
			want = 1
			if h.L2.Stats().Misses > l2.Misses {
				want = 2
			}
		} else if h.L2.Stats().Accesses != l2.Accesses {
			t.Fatalf("access %d: L1 hit probed L2", i)
		}
		if level != want {
			t.Fatalf("access %d (%#x): level %d, counters say %d", i, addr, level, want)
		}
		if lat != h.LevelLatency(level) {
			t.Fatalf("access %d: latency %d, LevelLatency(%d) = %d", i, lat, level, h.LevelLatency(level))
		}
		seen[level]++
	}
	for level, n := range seen {
		if n == 0 {
			t.Errorf("address stream never resolved at level %d", level)
		}
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewPOWER5Hierarchy()
	h.Access(0)
	h.Reset()
	if h.L1.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Error("hierarchy Reset incomplete")
	}
}

func TestMissRateZeroWhenIdle(t *testing.T) {
	if r := (Stats{}).MissRate(); r != 0 {
		t.Errorf("idle miss rate = %f", r)
	}
}
