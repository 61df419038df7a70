package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bioperf5/internal/cache"
	"bioperf5/internal/machine"
)

// Capturer builds an annotated trace from the dynamic instruction
// stream of one functional execution.  It runs the same fixed data
// hierarchy the coupled timing model would, in the same program order,
// so the recorded miss levels are bit-identical to what cpu.Model's
// live hierarchy feeds the timing core.  Branch prediction is not
// captured: direction predictors and the BTAC run live at replay time,
// which is what lets one trace serve the whole predictor zoo.
type Capturer struct {
	b   Builder
	mem *cache.Hierarchy
}

// NewCapturer returns a capturer over the fixed POWER5 data hierarchy.
func NewCapturer() *Capturer {
	return &Capturer{mem: cache.NewPOWER5Hierarchy()}
}

// Observe records one dynamic instruction.  Call it in execution order
// with every instruction the machine steps.
func (c *Capturer) Observe(d machine.DynInst) {
	r := Record{PC: d.Index, Taken: d.Taken}
	ins := d.Ins
	if ins.IsLoad() || ins.IsStore() {
		r.HasEA, r.EA = true, d.EA
		_, level := c.mem.Access(d.EA)
		r.MissLevel = uint8(level)
	}
	c.b.Add(r)
}

// Finish seals the capture.  The per-miss-level load latencies are
// stamped from the live hierarchy so replay charges exactly the
// latencies capture observed.
func (c *Capturer) Finish(meta Meta) *Trace {
	meta.LoadLat = c.mem.LevelLatencies()
	return c.b.Finish(meta)
}

// keySchema versions the trace content address; bump it when the
// meaning of a key field changes.  Schema 2 dropped the predictor from
// the key: traces are predictor-agnostic as of format version 2.
const keySchema = 2

// Key is the content identity of a trace: everything the dynamic
// instruction stream and its annotations depend on — and nothing the
// timing sweep varies.  Cells differing only in FXU count, BTAC sizing,
// predictor choice or pipeline penalties share one Key, which is the
// entire point.
type Key struct {
	App      string
	Variant  string
	Seed     int64
	Scale    int
	ProgHash string
}

// KeyFromMeta reconstructs the content key a trace answers.  Every Key
// field is stored in the file's meta, which is what lets a remote tier
// verify an uploaded trace against the address it claims: decode,
// rebuild the key, hash, compare.
func KeyFromMeta(m Meta) Key {
	return Key{
		App:      m.App,
		Variant:  m.Variant,
		Seed:     m.Seed,
		Scale:    m.Scale,
		ProgHash: m.ProgHash,
	}
}

// Matches reports whether a trace's meta answers this key.
func (k Key) Matches(m Meta) bool {
	return m.App == k.App && m.Variant == k.Variant && m.Seed == k.Seed &&
		m.Scale == k.Scale && m.ProgHash == k.ProgHash
}

// Hash returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding.
func (k Key) Hash() string {
	b, err := json.Marshal(struct {
		Schema int `json:"schema"`
		Key
	}{Schema: keySchema, Key: k})
	if err != nil {
		panic(fmt.Sprintf("trace: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
