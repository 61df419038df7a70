// Package trace implements the capture-once/replay-many dynamic-trace
// subsystem.  The paper's methodology is trace-driven: one dynamic
// instruction stream per (kernel, variant, seed, scale) is evaluated
// under many core configurations, so the functional execution — and
// everything else that is invariant across the timing sweep — should be
// paid for exactly once.
//
// A trace records, per dynamic instruction: the PC (delta-encoded), the
// branch direction, the effective address of a memory access (zig-zag
// delta varint), and one annotation that is itself invariant across
// the timing configurations the sweeps vary (FXU count, BTAC sizing,
// predictor choice, pipeline penalties): the cache miss level of a
// memory access (L1 hit / L2 hit / memory) — the data hierarchy is
// fixed, so the miss sequence depends only on the address stream.
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
	"sync"
	"sync/atomic"
)

// FormatVersion versions the record encoding and the file layout; bump
// it whenever either changes so stale files are recaptured, never
// misparsed.  Version 2 moved the direction predictor live into the
// replayer: records no longer carry a per-predictor verdict bit and
// trace identity no longer includes a predictor name.
const FormatVersion = 2

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

// Record head layout: uvarint( zigzag(pcDelta)<<4 | flags ), where the
// flag bits are Taken, HasEA, and the two-bit miss level (memory ops).
// A HasEA record is followed by uvarint(zigzag(eaDelta)).
const (
	flagTaken     = 1 << 0
	flagHasEA     = 1 << 1
	flagMissShift = 2 // bits 2-3: miss level
	headShift     = 4
	flagMask      = 1<<headShift - 1

	maxMissLevel = 2
	// maxPC is the largest PC a Head holds: the 28 bits above the flags.
	maxPC = 1<<(32-headShift) - 1
)

// Head is one record of a trace's head column: the absolute PC above
// the same four flag bits the payload's record head carries.
type Head uint32

func (h Head) PC() int          { return int(h >> headShift) }
func (h Head) Taken() bool      { return h&flagTaken != 0 }
func (h Head) HasEA() bool      { return h&flagHasEA != 0 }
func (h Head) MissLevel() uint8 { return uint8(h>>flagMissShift) & 3 }

// Trace is one captured execution in two forms.  Meta and Payload are
// its identity: the delta-varint record stream that is hashed, written
// to disk and sent over the wire.  The columns are what replay reads:
// one Head per record and the effective addresses of the memory ops,
// in order.  They are built exactly once per Trace — handed over by
// Builder.Finish, or decoded from Payload on first use — so a Trace
// must not be copied, and Meta and Payload are read-only once it has
// been replayed, iterated or sized.
type Trace struct {
	Meta    Meta
	Payload []byte

	once  sync.Once
	heads []Head
	eas   []uint64
	err   error
}

// decodes counts payload decodes process-wide.
var decodes atomic.Uint64

// Decodes returns how many payloads this process has decoded into
// columns: at most one per Trace, none for a trace captured here.
func Decodes() uint64 { return decodes.Load() }

// Columns returns the record heads and the memory ops' effective
// addresses (the i-th HasEA head owns eas[i]).  A payload that does
// not decode to exactly Meta.Records records reports ErrCorrupt, on
// this and every later call.
func (t *Trace) Columns() ([]Head, []uint64, error) {
	t.once.Do(func() {
		decodes.Add(1)
		t.heads, t.eas, t.err = decodeColumns(t.Payload, t.Meta.Records)
	})
	return t.heads, t.eas, t.err
}

// SizeBytes is the trace's in-memory footprint for the store's byte
// budget: payload plus columns (about 2 + 4 bytes per instruction and
// 8 per memory op).  It builds the columns if nothing has yet, so the
// figure is final for the life of the Trace.
func (t *Trace) SizeBytes() int64 {
	heads, eas, _ := t.Columns()
	return int64(len(t.Payload)) + 4*int64(len(heads)) + 8*int64(len(eas)) + 256
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// scratch is the growable storage a trace is built in.  Traces run to
// megabytes per column, so growing fresh slices for every capture
// spends more time in memmove than in encoding; builders and decoders
// borrow a scratch and seal exact-size copies out of it instead.
type scratch struct {
	payload []byte
	heads   []Head
	eas     []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// seal copies s out of a scratch into a slice of exactly its length.
func seal[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Builder accumulates records into a payload and its columns.  The
// zero value is ready to use.
type Builder struct {
	s      *scratch
	prevPC int
	prevEA uint64
	// unfit is set by a record no Head can hold; Finish then leaves the
	// columns to the decoder, which rejects the payload as corrupt.
	unfit bool
}

// Add appends one record (Next is ignored; it is derived on replay).
func (b *Builder) Add(r Record) {
	s := b.s
	if s == nil {
		s = scratchPool.Get().(*scratch)
		s.payload, s.heads, s.eas = s.payload[:0], s.heads[:0], s.eas[:0]
		b.s = s
	}
	flags := uint64(0)
	if r.Taken {
		flags |= flagTaken
	}
	if r.HasEA {
		flags |= flagHasEA
		flags |= uint64(r.MissLevel) << flagMissShift
	}
	if uint(r.PC) > maxPC || r.MissLevel > maxMissLevel {
		b.unfit = true
	}
	s.payload = binary.AppendUvarint(s.payload, zigzag(int64(r.PC-b.prevPC))<<headShift|flags)
	s.heads = append(s.heads, Head(r.PC)<<headShift|Head(flags))
	b.prevPC = r.PC
	if r.HasEA {
		s.payload = binary.AppendUvarint(s.payload, zigzag(int64(r.EA-b.prevEA)))
		s.eas = append(s.eas, r.EA)
		b.prevEA = r.EA
	}
}

// Len returns the number of records added so far.
func (b *Builder) Len() uint64 {
	if b.s == nil {
		return 0
	}
	return uint64(len(b.s.heads))
}

// Finish seals payload and columns into a Trace carrying meta (Schema
// and Records are filled in) and resets the builder.
func (b *Builder) Finish(meta Meta) *Trace {
	meta.Schema = FormatVersion
	meta.Records = b.Len()
	t := &Trace{Meta: meta}
	if s := b.s; s != nil {
		t.Payload = seal(s.payload)
		if !b.unfit {
			heads, eas := seal(s.heads), seal(s.eas)
			t.once.Do(func() { t.heads, t.eas = heads, eas })
		}
		scratchPool.Put(s)
	}
	*b = Builder{}
	return t
}

// uvarint reads one minimally encoded uvarint; n <= 0 reports a
// truncated, overlong or zero-padded one.  Refusing padding makes
// payload and columns a bijection: a payload has one decoding and the
// decoding re-encodes to the same bytes.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// decodeColumns is the one payload decoder.  It accepts exactly what
// Builder writes: records heads, each PC inside a Head, miss levels
// only on memory ops and at most maxMissLevel, no byte left over.
func decodeColumns(buf []byte, records uint64) ([]Head, []uint64, error) {
	// A record is at least one byte, which also bounds the allocation an
	// untrusted record count can ask for.
	if records > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("%w: %d payload bytes cannot hold %d records", ErrCorrupt, len(buf), records)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	heads, eas := make([]Head, records), s.eas[:0]
	var pc int64
	var ea uint64
	pos := 0
	for i := range heads {
		if pos == len(buf) {
			return nil, nil, fmt.Errorf("%w: payload ends after %d of %d records", ErrCorrupt, i, records)
		}
		head, n := uvarint(buf[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad record head at offset %d", ErrCorrupt, pos)
		}
		pos += n
		pc += unzigzag(head >> headShift)
		if uint64(pc) > maxPC {
			return nil, nil, fmt.Errorf("%w: record %d: PC %d does not fit a head", ErrCorrupt, i, pc)
		}
		flags := Head(head & flagMask)
		heads[i] = Head(pc)<<headShift | flags
		if !flags.HasEA() {
			if flags.MissLevel() != 0 {
				return nil, nil, fmt.Errorf("%w: record %d: miss level on a non-memory op", ErrCorrupt, i)
			}
			continue
		}
		if flags.MissLevel() > maxMissLevel {
			return nil, nil, fmt.Errorf("%w: record %d: miss level %d", ErrCorrupt, i, flags.MissLevel())
		}
		delta, n := uvarint(buf[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad EA at offset %d", ErrCorrupt, pos)
		}
		pos += n
		ea += uint64(unzigzag(delta))
		eas = append(eas, ea)
	}
	s.eas = eas
	if pos != len(buf) {
		return nil, nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(buf)-pos)
	}
	return heads, seal(eas), nil
}

// Iter walks a trace's records in order, deriving each record's Next
// from its successor.  Check Err after the loop: a trace whose payload
// did not decode yields no records and reports why.
type Iter struct {
	heads []Head
	eas   []uint64
	i, ea int
	cur   Record
	err   error
}

// Iter returns an iterator positioned before the first record.
func (t *Trace) Iter() *Iter {
	heads, eas, err := t.Columns()
	return &Iter{heads: heads, eas: eas, err: err}
}

// Next advances to the next record; it returns false at the end of the
// trace.
func (it *Iter) Next() bool {
	if it.i >= len(it.heads) {
		return false
	}
	h := it.heads[it.i]
	it.i++
	// The final record of a halted execution has no successor.
	it.cur = Record{PC: h.PC(), Next: h.PC(), Taken: h.Taken()}
	if it.i < len(it.heads) {
		it.cur.Next = it.heads[it.i].PC()
	}
	if h.HasEA() {
		it.cur.HasEA, it.cur.EA, it.cur.MissLevel = true, it.eas[it.ea], h.MissLevel()
		it.ea++
	}
	return true
}

// Rec returns the current record.
func (it *Iter) Rec() *Record { return &it.cur }

// Err reports why the trace could not be decoded, if it could not.
func (it *Iter) Err() error { return it.err }

// EncodeFile serializes the trace into its durable file form:
//
//	magic | uvarint(len(meta JSON)) | meta JSON | uvarint(len(payload)) |
//	payload | SHA-256 over everything preceding
func (t *Trace) EncodeFile() ([]byte, error) {
	mb, err := json.Marshal(t.Meta)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(magic)+len(mb)+len(t.Payload)+48)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(mb)))
	out = append(out, mb...)
	out = binary.AppendUvarint(out, uint64(len(t.Payload)))
	out = append(out, t.Payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// DecodeFile parses and verifies a trace file.  Any structural damage —
// wrong magic, bad lengths, schema mismatch, checksum mismatch — is
// reported as ErrCorrupt.
func DecodeFile(b []byte) (*Trace, error) {
	if len(b) < len(magic)+sha256.Size || !bytes.Equal(b[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad magic or short file", ErrCorrupt)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	pos := len(magic)
	mlen, n := uvarint(body[pos:])
	if n <= 0 || mlen > uint64(len(body)-pos-n) {
		return nil, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	pos += n
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
	pos += int(mlen)
	if meta.Schema != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, meta.Schema, FormatVersion)
	}
	plen, n := uvarint(body[pos:])
	if n <= 0 || plen != uint64(len(body)-pos-n) {
		return nil, fmt.Errorf("%w: bad payload length", ErrCorrupt)
	}
	pos += n
	return &Trace{Meta: meta, Payload: body[pos:]}, nil
}

// DecodeReplayable is DecodeFile for bytes that are about to be kept
// for replay — a store's memory tier, fsck's verdict on a file.  The
// checksum vouches for the writer's bytes; building the columns
// vouches that they replay, so the trace is sized exactly from the
// start and a file that cannot replay is refused (and recaptured) like
// any other corrupt one instead of failing every cell that asks for it.
func DecodeReplayable(b []byte) (*Trace, error) {
	t, err := DecodeFile(b)
	if err != nil {
		return nil, err
	}
	if _, _, err := t.Columns(); err != nil {
		return nil, err
	}
	return t, nil
}
