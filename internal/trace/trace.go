// Package trace implements the capture-once/replay-many dynamic-trace
// subsystem.  The paper's methodology is trace-driven: one dynamic
// instruction stream per (kernel, variant, seed, scale) is evaluated
// under many core configurations, so the functional execution — and
// everything else that is invariant across the timing sweep — should be
// paid for exactly once.
//
// A trace records, per dynamic instruction: the PC, the branch
// direction, the effective address of a memory access, and one
// annotation that is itself invariant across the timing configurations
// the sweeps vary (FXU count, BTAC sizing, predictor choice, pipeline
// penalties): the cache miss level of a memory access (L1 hit / L2 hit
// / memory) — the data hierarchy is fixed, so the miss sequence depends
// only on the address stream.  The payload is those records as two
// fixed-width columns, and it is the one form a trace has: what is
// checksummed, written to disk, sent over the wire and read by
// replay.  It costs about 7.4 bytes per instruction (4 per record head,
// 8 per memory op); the paper grid's eight scale-1 traces take 23.2 MB.
//
// Replay therefore needs neither the functional machine nor the cache:
// only the branch predictors — the direction predictor and the BTAC,
// whose choice and geometry the sweeps vary — stay live in the timing
// model.  Every direction predictor is a deterministic function of the
// (pc, taken) sequence the trace records, which is why one capture
// serves the whole predictor zoo: the predictor is timing
// configuration, not trace identity.  The op class, register uses and
// defs, latencies and branch targets are static per PC and come from
// the compiled program, which the trace pins by content hash.
//
// This package encodes and stores traces; cpu.Walk builds them,
// appending to a Builder from the same instruction walk that feeds the
// coupled timing core, so a recorded miss level is the one the live
// core would have been charged.
//
// Traces are versioned, checksummed (SHA-256 over the whole file) and
// content-addressed by Key; Store adds an in-memory LRU with a byte
// budget plus an on-disk tier with corruption detection.
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// FormatVersion versions the record encoding and the file layout; bump
// it whenever either changes so stale files are recaptured, never
// misparsed.  Version 2 moved the direction predictor live into the
// replayer; version 3 made the payload the columns replay reads.
const FormatVersion = 3

// magic opens every trace file.
var magic = []byte("BP5TRACE\x01")

// ErrCorrupt marks a trace file that failed structural or checksum
// verification; callers fall back to a fresh capture.
var ErrCorrupt = errors.New("trace: corrupt trace")

// Meta describes what a trace is a trace of.  It is stored as JSON in
// the file header and verified against the requested Key on load.
type Meta struct {
	Schema   int    `json:"schema"`
	App      string `json:"app"`     // application (Fasta, ...)
	Kernel   string `json:"kernel"`  // kernel function name (dropgsw, ...)
	Variant  string `json:"variant"` // predication variant name
	Seed     int64  `json:"seed"`
	Scale    int    `json:"scale"`
	ProgHash string `json:"prog_hash"` // content hash of the compiled program
	Records  uint64 `json:"records"`   // dynamic instruction count
	Result   int64  `json:"result"`    // functional result, verified at capture
	LoadLat  [3]int `json:"load_lat"`  // load-to-use latency per miss level
}

// Record is one decoded dynamic instruction.  Next is derived by the
// iterator from the following record's PC (the final record of a halted
// execution has Next == PC, matching machine.DynInst's halt convention).
type Record struct {
	PC        int
	Next      int
	Taken     bool // branches: direction
	HasEA     bool // memory op: EA is meaningful
	EA        uint64
	MissLevel uint8 // memory op: 0 L1 hit, 1 L2 hit, 2 memory
}

// Payload layout: Meta.Records little-endian uint32 heads, then one
// little-endian uint64 effective address per memory-op head, in record
// order.  A head is pc<<4 | flags, where the flag bits are Taken,
// HasEA, and the two-bit miss level (memory ops only).
const (
	flagTaken     = 1 << 0
	flagHasEA     = 1 << 1
	flagMissShift = 2 // bits 2-3: miss level
	headShift     = 4
	flagMask      = 1<<headShift - 1

	headBytes = 4
	eaBytes   = 8

	maxMissLevel = 2
	// maxPC is the largest PC a Head holds: the 28 bits above the flags.
	maxPC = 1<<(32-headShift) - 1
	// legalFlags has bit f set for each flag nibble f a Builder writes:
	// 0 and 1 (no miss level on a non-memory op), and 2, 3, 6, 7, 10
	// and 11 (a memory op's miss level at most maxMissLevel).
	legalFlags = 0x0CCF
)

// Head is one record's head: the PC above the four flag bits.
type Head uint32

func (h Head) PC() int          { return int(h >> headShift) }
func (h Head) Taken() bool      { return h&flagTaken != 0 }
func (h Head) HasEA() bool      { return h&flagHasEA != 0 }
func (h Head) MissLevel() uint8 { return uint8(h>>flagMissShift) & 3 }

// Legal reports whether the head's flags are ones a Builder writes.
func (h Head) Legal() bool { return legalFlags>>(h&flagMask)&1 != 0 }

// Trace is one captured execution: what it is a trace of, and its
// records in the payload layout above.  A Trace is an immutable value;
// Builder.Finish and DecodeFile hand out traces whose payload matches
// Meta.Records exactly.
type Trace struct {
	Meta    Meta
	Payload []byte
}

// SizeBytes is the trace's in-memory footprint for the store's byte
// budget: the payload and a fixed allowance for the rest.
func (t *Trace) SizeBytes() int64 { return int64(len(t.Payload)) + 256 }

// Records reads a trace's payload by index: the view replay's loop
// holds in registers.  Only this package knows the byte layout; the
// accessors inline.
type Records struct {
	p   []byte
	eas int // byte offset of the EA column: headBytes per record
}

// Records returns the trace's payload as Records, or ErrCorrupt when
// the payload is too short to hold Meta.Records heads.
func (t *Trace) Records() (Records, error) {
	if t.Meta.Records > uint64(len(t.Payload)/headBytes) {
		return Records{}, fmt.Errorf("%w: %d payload bytes cannot hold %d records", ErrCorrupt, len(t.Payload), t.Meta.Records)
	}
	return Records{p: t.Payload, eas: headBytes * int(t.Meta.Records)}, nil
}

// Len returns the number of records.
func (r Records) Len() int { return r.eas / headBytes }

// Head returns record i's head, for i below Len.
func (r Records) Head(i int) Head {
	at := headBytes * i
	return Head(binary.LittleEndian.Uint32(r.p[at : at+headBytes : at+headBytes]))
}

// EA returns the effective address of the j-th memory op; false
// reports a payload that ends first.
func (r Records) EA(j int) (uint64, bool) {
	at := r.eas + eaBytes*j
	if at+eaBytes > len(r.p) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(r.p[at : at+eaBytes : at+eaBytes]), true
}

// check is the payload's trust boundary: exactly Meta.Records heads,
// each with legal flags, followed by exactly one EA per memory op.  It
// returns the payload's Records, or none with the first violation.
func (t *Trace) check() (Records, error) {
	r, err := t.Records()
	if err != nil {
		return Records{}, err
	}
	n, mem := r.Len(), 0
	for i := 0; i < n; i++ {
		h := r.Head(i)
		if !h.Legal() {
			return Records{}, fmt.Errorf("%w: record %d: miss level %d (memory op %v)", ErrCorrupt, i, h.MissLevel(), h.HasEA())
		}
		mem += int(h&flagHasEA) / flagHasEA
	}
	if want := r.eas + eaBytes*mem; len(r.p) != want {
		return Records{}, fmt.Errorf("%w: %d payload bytes, want %d for %d records and %d memory ops",
			ErrCorrupt, len(r.p), want, r.Len(), mem)
	}
	return r, nil
}

// scratch is the growable storage a trace is built in.  Traces run to
// megabytes per column, so growing fresh slices for every capture
// spends more time in memmove than in encoding; builders borrow a
// scratch and seal one exact-size payload out of it instead.
type scratch struct {
	heads, eas []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Builder accumulates records into a payload.  The zero value is ready
// to use.
type Builder struct {
	s *scratch
	// err is the first record no head can hold; Finish returns it.
	err error
}

// Add appends one record (Next is ignored; it is derived on replay).
func (b *Builder) Add(r Record) {
	s := b.s
	if s == nil {
		s = scratchPool.Get().(*scratch)
		s.heads, s.eas = s.heads[:0], s.eas[:0]
		b.s = s
	}
	if (uint(r.PC) > maxPC || r.MissLevel > maxMissLevel) && b.err == nil {
		b.err = fmt.Errorf("trace: record %d: PC %d and miss level %d do not fit a head", b.Len(), r.PC, r.MissLevel)
	}
	h := Head(r.PC) << headShift
	if r.Taken {
		h |= flagTaken
	}
	if r.HasEA {
		h |= flagHasEA | Head(r.MissLevel)<<flagMissShift
		s.eas = binary.LittleEndian.AppendUint64(s.eas, r.EA)
	}
	s.heads = binary.LittleEndian.AppendUint32(s.heads, uint32(h))
}

// Len returns the number of records added so far.
func (b *Builder) Len() uint64 {
	if b.s == nil {
		return 0
	}
	return uint64(len(b.s.heads) / headBytes)
}

// Finish seals the records into a Trace carrying meta (Schema and
// Records are filled in) and resets the builder.  A record no head can
// hold fails the whole trace.
func (b *Builder) Finish(meta Meta) (*Trace, error) {
	meta.Schema = FormatVersion
	meta.Records = b.Len()
	s, err := b.s, b.err
	*b = Builder{}
	if s == nil {
		return &Trace{Meta: meta}, nil
	}
	defer scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, len(s.heads)+len(s.eas))
	copy(payload[copy(payload, s.heads):], s.eas)
	return &Trace{Meta: meta, Payload: payload}, nil
}

// Iter walks a trace's records in order, deriving each record's Next
// from its successor.  Check Err after the loop: a trace whose payload
// does not match its meta yields no records and reports why.
type Iter struct {
	r     Records
	i, ea int
	cur   Record
	err   error
}

// Iter returns an iterator positioned before the first record.
func (t *Trace) Iter() *Iter {
	r, err := t.check()
	return &Iter{r: r, err: err}
}

// Next advances to the next record; it returns false at the end of the
// trace.
func (it *Iter) Next() bool {
	if it.i >= it.r.Len() {
		return false
	}
	h := it.r.Head(it.i)
	it.i++
	// The final record of a halted execution has no successor.
	it.cur = Record{PC: h.PC(), Next: h.PC(), Taken: h.Taken()}
	if it.i < it.r.Len() {
		it.cur.Next = it.r.Head(it.i).PC()
	}
	if h.HasEA() {
		it.cur.HasEA, it.cur.MissLevel = true, h.MissLevel()
		it.cur.EA, _ = it.r.EA(it.ea)
		it.ea++
	}
	return true
}

// Rec returns the current record.
func (it *Iter) Rec() *Record { return &it.cur }

// Err reports why the trace could not be walked, if it could not.
func (it *Iter) Err() error { return it.err }

// EncodeFile serializes the trace into its durable file form:
//
//	magic | little-endian uint32 len(meta JSON) | meta JSON | payload |
//	SHA-256 over everything preceding
func (t *Trace) EncodeFile() ([]byte, error) {
	var b bytes.Buffer
	b.Grow(len(magic) + 4 + 1024 + len(t.Payload) + sha256.Size)
	err := t.writeFile(&b)
	return b.Bytes(), err
}

// writeFile writes EncodeFile's bytes to w part by part, so a disk
// write never holds a second copy of the payload.
func (t *Trace) writeFile(w io.Writer) error {
	mb, err := json.Marshal(t.Meta)
	if err != nil {
		return err
	}
	sum := sha256.New()
	body := io.MultiWriter(w, sum)
	head := binary.LittleEndian.AppendUint32(append([]byte(nil), magic...), uint32(len(mb)))
	for _, part := range [][]byte{head, mb, t.Payload} {
		if _, err := body.Write(part); err != nil {
			return err
		}
	}
	_, err = w.Write(sum.Sum(nil))
	return err
}

// DecodeFile parses and verifies a trace file; it is the one trust
// boundary between bytes from a disk, a hub or an upload and the timing
// core.  It accepts exactly what EncodeFile writes for a built trace:
// the magic, a matching checksum, canonical meta JSON of this format
// version, and a payload that check accepts.  Anything else is
// ErrCorrupt.  The returned payload aliases b.
func DecodeFile(b []byte) (*Trace, error) {
	if len(b) < len(magic)+4+sha256.Size || !bytes.Equal(b[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad magic or short file", ErrCorrupt)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	pos := len(magic) + 4
	mlen := uint64(binary.LittleEndian.Uint32(body[len(magic):]))
	if mlen > uint64(len(body)-pos) {
		return nil, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	raw := body[pos : pos+int(mlen)]
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	// Only the bytes EncodeFile writes are a trace file: a meta with a
	// field it would not write, or spelled another way, is refused, so a
	// stored file is always the one encoding of the trace it decodes to.
	if canon, err := json.Marshal(meta); err != nil || !bytes.Equal(canon, raw) {
		return nil, fmt.Errorf("%w: meta is not in canonical form", ErrCorrupt)
	}
	if meta.Schema != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, meta.Schema, FormatVersion)
	}
	t := &Trace{Meta: meta, Payload: body[pos+int(mlen):]}
	if _, err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}
