// Package cache models the set-associative data caches of the POWER5
// memory hierarchy.  The paper's Table I reports L1D miss rates for the
// four applications (all very low — the key observation that cache
// behaviour is NOT the bottleneck), so the timing model needs a real
// cache to reproduce that line.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"bioperf5/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	Name       string // for reporting ("L1D", "L2")
	SizeBytes  int    // total capacity
	LineBytes  int    // line size (POWER5 L1D: 128B)
	Assoc      int    // ways per set
	HitLatency int    // access latency in cycles
}

// Validate reports configuration errors (non-power-of-two geometry,
// impossible associativity).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Assoc
	if sets == 0 || sets*c.Assoc != lines {
		return fmt.Errorf("cache %s: %d lines not divisible into %d ways", c.Name, lines, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// POWER5L1D returns the POWER5's 32KB 4-way 128B-line L1 data cache.
func POWER5L1D() Config {
	return Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 128, Assoc: 4, HitLatency: 2}
}

// POWER5L2 returns a POWER5-like 1.875MB 10-way unified L2 slice with a
// 13-cycle load-to-use latency.
func POWER5L2() Config {
	// 1.875MB = 15360 lines of 128B; 10-way gives 1536 sets, which is
	// not a power of two, so we model the per-core share as 1MB 8-way —
	// the latency, which is what the timing model consumes, is the
	// POWER5 value.
	return Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 128, Assoc: 8, HitLatency: 13}
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns Misses/Accesses (zero when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid bool
	tag   uint64
	// lru is a per-set logical timestamp; the smallest value in the
	// set is the least recently used line.
	lru uint64
}

// Cache is one set-associative level with true-LRU replacement.
type Cache struct {
	cfg       Config
	lines     []line // set i is lines[i*Assoc : (i+1)*Assoc]
	setMask   uint64
	lineShift uint
	tagShift  uint // bits of the line address the set index consumes
	clock     uint64
	stats     Stats
}

// New builds a cache from cfg; the configuration must Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*cfg.Assoc),
		setMask:   uint64(nsets - 1),
		lineShift: shift,
		tagShift:  uint(bits.Len(uint(nsets - 1))),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the event counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Access touches the line containing addr and reports whether it hit.
// On a miss the line is filled, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	set, tag := c.set(addr)

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.stats.Evictions++
	}
	set[victim] = line{valid: true, tag: tag, lru: c.clock}
	return false
}

// set returns the ways addr's line maps to and the line's tag.
func (c *Cache) set(addr uint64) ([]line, uint64) {
	lineAddr := addr >> c.lineShift
	i := int(lineAddr&c.setMask) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc], lineAddr >> c.tagShift
}

// Contains reports whether addr's line is resident without touching LRU
// state or counters (used by tests and by prefetch heuristics).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// PublishTo mirrors the cache's statistics into reg under
// "cache.<name>.*" (the name lower-cased, e.g. "cache.l1d.misses").
func (c *Cache) PublishTo(reg *telemetry.Registry) {
	prefix := "cache." + strings.ToLower(c.cfg.Name) + "."
	reg.Counter(prefix + "accesses").Set(c.stats.Accesses)
	reg.Counter(prefix + "misses").Set(c.stats.Misses)
	reg.Counter(prefix + "evictions").Set(c.stats.Evictions)
	reg.Gauge(prefix + "miss_rate").Set(c.stats.MissRate())
}

// Reset invalidates the cache and clears counters.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
}

// Hierarchy is the two-level data-side hierarchy the timing model uses:
// an access that misses L1 probes L2; a miss there costs the memory
// latency.  Latency returns the total load-to-use latency in cycles.
type Hierarchy struct {
	L1, L2     *Cache
	MemLatency int // cycles for an access missing both levels
}

// NewPOWER5Hierarchy builds the default POWER5-like data hierarchy with
// a 230-cycle memory latency.
func NewPOWER5Hierarchy() *Hierarchy {
	return &Hierarchy{
		L1:         MustNew(POWER5L1D()),
		L2:         MustNew(POWER5L2()),
		MemLatency: 230,
	}
}

// Access runs addr through the hierarchy and returns the load-to-use
// latency in cycles together with the level the access resolved at:
// 0 an L1 hit, 1 an L1 miss that hit L2, 2 a miss in both.
func (h *Hierarchy) Access(addr uint64) (latency, level int) {
	if h.L1.Access(addr) {
		return h.L1.cfg.HitLatency, 0
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.HitLatency, 1
	}
	return h.MemLatency, 2
}

// LevelLatency returns the load-to-use latency of an access that
// resolves at the given miss level: 0 is an L1 hit, 1 an L2 hit, and
// anything else goes to memory.  It is the same arithmetic Access
// applies, exposed so a recorded miss level can be turned back into a
// latency without re-simulating the hierarchy.
func (h *Hierarchy) LevelLatency(level int) int {
	switch level {
	case 0:
		return h.L1.cfg.HitLatency
	case 1:
		return h.L2.cfg.HitLatency
	default:
		return h.MemLatency
	}
}

// LevelLatencies returns LevelLatency for the three levels Access can
// report, the table a timing core charges loads from.
func (h *Hierarchy) LevelLatencies() [3]int {
	return [3]int{h.LevelLatency(0), h.LevelLatency(1), h.LevelLatency(2)}
}

// Reset clears both levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}

// PublishTo mirrors both levels' statistics into reg.
func (h *Hierarchy) PublishTo(reg *telemetry.Registry) {
	h.L1.PublishTo(reg)
	h.L2.PublishTo(reg)
}
