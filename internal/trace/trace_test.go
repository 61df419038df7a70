package trace

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// sampleRecords exercises every encoding path: plain ops, taken and
// not-taken branches, loads and stores across all three miss levels,
// and backward PC deltas (loops).
func sampleRecords() []Record {
	return []Record{
		{PC: 0},
		{PC: 1, HasEA: true, EA: 0x7FFF0000, MissLevel: 2},
		{PC: 2, HasEA: true, EA: 0x7FFF0008, MissLevel: 0},
		{PC: 3, Taken: true},
		{PC: 1, HasEA: true, EA: 0x1000, MissLevel: 1},
		{PC: 2, HasEA: true, EA: 0x7FFF0000},
		{PC: 3, Taken: true},
		{PC: 1, Taken: false},
		{PC: 4},
	}
}

func buildSample(t *testing.T) *Trace {
	t.Helper()
	var b Builder
	for _, r := range sampleRecords() {
		b.Add(r)
	}
	tr, err := b.Finish(Meta{App: "Fasta", Kernel: "dropgsw", Variant: "original",
		Seed: 1, Scale: 1, ProgHash: "abc", Result: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderIterRoundTrip(t *testing.T) {
	tr := buildSample(t)
	want := sampleRecords()
	if tr.Meta.Records != uint64(len(want)) {
		t.Fatalf("Records = %d, want %d", tr.Meta.Records, len(want))
	}
	it := tr.Iter()
	var got []Record
	for it.Next() {
		got = append(got, *it.Rec())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		// Next is derived: the successor's PC, or own PC for the final
		// record (the machine's halt convention).
		w.Next = w.PC
		if i+1 < len(want) {
			w.Next = want[i+1].PC
		}
		if got[i] != w {
			t.Errorf("record %d = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestIterEmptyTrace(t *testing.T) {
	var b Builder
	tr, err := b.Finish(Meta{})
	if err != nil {
		t.Fatal(err)
	}
	it := tr.Iter()
	if it.Next() {
		t.Fatal("Next on empty trace")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// unchecked returns a trace no check has seen, as a hand-built literal
// is.
func unchecked(meta Meta, payload []byte) *Trace {
	return &Trace{Meta: meta, Payload: payload}
}

func records(t *testing.T, tr *Trace) Records {
	t.Helper()
	r, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func iterErr(tr *Trace) error {
	it := tr.Iter()
	for it.Next() {
	}
	return it.Err()
}

func TestIterTruncatedPayload(t *testing.T) {
	tr := buildSample(t)
	cut := unchecked(tr.Meta, tr.Payload[:len(tr.Payload)/2])
	if err := iterErr(cut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: err = %v, want ErrCorrupt", err)
	}
}

func TestIterRecordCountMismatch(t *testing.T) {
	tr := buildSample(t)
	over := tr.Meta
	over.Records += 3 // claims more records than the payload holds
	if err := iterErr(unchecked(over, tr.Payload)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record overcount: err = %v, want ErrCorrupt", err)
	}
	under := tr.Meta
	under.Records -= 3 // payload longer than the claimed count
	if err := iterErr(unchecked(under, tr.Payload)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record undercount: err = %v, want ErrCorrupt", err)
	}
}

// TestBuilderHandsOverColumns: a captured trace's payload is its two
// columns, sealed into one exact-size slice — every head, then the
// memory ops' effective addresses in order — and it is all the store's
// budget is charged for besides a fixed allowance.
func TestBuilderHandsOverColumns(t *testing.T) {
	tr := buildSample(t)
	recs := sampleRecords()
	r := records(t, tr)
	if r.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(recs))
	}
	var mem []uint64
	for i, rec := range recs {
		h := r.Head(i)
		if h.PC() != rec.PC || h.Taken() != rec.Taken || h.HasEA() != rec.HasEA || h.MissLevel() != rec.MissLevel {
			t.Errorf("head %d = %#x, want record %+v", i, uint32(h), rec)
		}
		if rec.HasEA {
			mem = append(mem, rec.EA)
		}
	}
	for j, want := range mem {
		if ea, ok := r.EA(j); !ok || ea != want {
			t.Errorf("EA %d = %#x (%v), want %#x", j, ea, ok, want)
		}
	}
	if _, ok := r.EA(len(mem)); ok {
		t.Error("an EA past the last memory op")
	}
	if want := 4*len(recs) + 8*len(mem); len(tr.Payload) != want || cap(tr.Payload) != want {
		t.Errorf("payload len %d cap %d, want exactly %d", len(tr.Payload), cap(tr.Payload), want)
	}
	if want := int64(len(tr.Payload)) + 256; tr.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want payload + 256 = %d", tr.SizeBytes(), want)
	}
}

// TestBuilderIsReusableAfterFinish: Finish resets the builder, and the
// scratch it returns to the pool is not aliased by the sealed trace.
func TestBuilderIsReusableAfterFinish(t *testing.T) {
	var b Builder
	b.Add(Record{PC: 7, HasEA: true, EA: 64})
	first, err := b.Finish(Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Finish", b.Len())
	}
	for _, r := range sampleRecords() {
		b.Add(r)
	}
	second, err := b.Finish(Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := iterErr(first); err != nil {
		t.Fatal(err)
	}
	it := first.Iter()
	if !it.Next() || *it.Rec() != (Record{PC: 7, Next: 7, HasEA: true, EA: 64}) || it.Next() {
		t.Errorf("first trace changed under the second build: %+v", *it.Rec())
	}
	if second.Meta.Records != uint64(len(sampleRecords())) {
		t.Errorf("second trace has %d records", second.Meta.Records)
	}
	if got := unchecked(second.Meta, second.Payload); iterErr(got) != nil || records(t, got).Head(0).PC() != 0 {
		t.Errorf("second payload does not start from PC 0: %v", iterErr(got))
	}
}

// TestHeadLegal: the flag nibbles Legal accepts are exactly the ones a
// Builder writes.
func TestHeadLegal(t *testing.T) {
	for f := Head(0); f <= flagMask; f++ {
		want := f.MissLevel() == 0 || (f.HasEA() && f.MissLevel() <= maxMissLevel)
		if h := Head(maxPC)<<headShift | f; h.Legal() != want {
			t.Errorf("flags %04b: Legal = %v, want %v", f, h.Legal(), want)
		}
	}
}

// TestDecodeRejections walks the decoder's whole refusal list.  Every
// file here carries a valid checksum, as in the attack it models, so
// DecodeFile is the only thing between it and the timing core; Iter
// refuses the same payloads handed over without a file.
func TestDecodeRejections(t *testing.T) {
	p := func(heads []Head, eas ...uint64) []byte {
		var b []byte
		for _, h := range heads {
			b = binary.LittleEndian.AppendUint32(b, uint32(h))
		}
		for _, ea := range eas {
			b = binary.LittleEndian.AppendUint64(b, ea)
		}
		return b
	}
	load := Head(1)<<headShift | flagHasEA
	plain := Head(1) << headShift
	cases := []struct {
		name    string
		records uint64
		payload []byte
		want    string
	}{
		{"short payload", 2, p([]Head{load, load}, 8), "16 payload bytes, want 24"},
		{"payload ends early", 3, p([]Head{plain, plain}), "cannot hold 3 records"},
		{"count exceeds bytes", 1 << 60, p([]Head{plain}), "cannot hold"},
		{"trailing bytes", 1, append(p([]Head{plain}), 0), "5 payload bytes, want 4"},
		{"EA column short", 1, p([]Head{load}), "4 payload bytes, want 12"},
		{"truncated head", 1, p([]Head{plain})[:3], "cannot hold"},
		{"miss level 3", 1, p([]Head{load | 3<<flagMissShift}, 8), "miss level 3 (memory op true)"},
		{"miss level on a non-memory op", 1, p([]Head{plain | 1<<flagMissShift}), "(memory op false)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := unchecked(Meta{Schema: FormatVersion, Records: c.records}, c.payload)
			file, err := tr.EncodeFile()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeFile(file)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want ErrCorrupt mentioning %q", err, c.want)
			}
			if got != nil {
				t.Error("a rejected file decoded to a trace")
			}
			if again := iterErr(tr); again == nil || again.Error() != err.Error() {
				t.Errorf("Iter reports %v, want %v", again, err)
			}
		})
	}
	// A file of an older format version is refused however sound.
	old := buildSample(t)
	old = unchecked(old.Meta, old.Payload)
	old.Meta.Schema = 2
	file, err := old.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(file); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 2") {
		t.Errorf("format version 2: err = %v, want ErrCorrupt", err)
	}
	// The edge of the accepted range decodes.
	edge := unchecked(Meta{Schema: FormatVersion, Records: 2},
		p([]Head{Head(maxPC)<<headShift | flagTaken, flagHasEA | 2<<flagMissShift}, 0))
	if file, err = edge.EncodeFile(); err != nil {
		t.Fatal(err)
	}
	ok, err := DecodeFile(file)
	if err != nil {
		t.Fatal(err)
	}
	r := records(t, ok)
	h0, h1 := r.Head(0), r.Head(1)
	if ea, has := r.EA(0); h0.PC() != maxPC || !h0.Taken() || h1.PC() != 0 || h1.MissLevel() != 2 || !has || ea != 0 {
		t.Errorf("edge payload decoded to %#x %#x %d", uint32(h0), uint32(h1), ea)
	}
}

// TestBuilderRefusesWhatNoHeadHolds: a record outside the head format
// fails the capture instead of carrying a wrapped PC to the timing
// core.
func TestBuilderRefusesWhatNoHeadHolds(t *testing.T) {
	for _, r := range []Record{{PC: maxPC + 1}, {PC: -1}, {PC: 1, HasEA: true, MissLevel: 3}} {
		var b Builder
		b.Add(Record{PC: 1})
		b.Add(r)
		tr, err := b.Finish(Meta{})
		if err == nil || tr != nil || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("record %+v: Finish = (%v, %v), want an error naming record 1", r, tr, err)
		}
		if b.Len() != 0 {
			t.Errorf("record %+v: builder not reset after a refused Finish", r)
		}
	}
}

func TestEncodeDecodeFileRoundTrip(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, tr.Meta)
	}
	if string(got.Payload) != string(tr.Payload) {
		t.Error("payload altered by file round trip")
	}
}

// TestDecodeFileBitFlips flips every byte of the encoded file in turn;
// the SHA-256 must catch each one as ErrCorrupt, never decode it.
func TestDecodeFileBitFlips(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mangled := append([]byte(nil), b...)
		mangled[i] ^= 0x40
		if _, err := DecodeFile(mangled); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d not detected: err = %v", i, err)
		}
	}
}

func TestDecodeFileTruncated(t *testing.T) {
	tr := buildSample(t)
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, len(magic), len(b) / 2, len(b) - 1} {
		if _, err := DecodeFile(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestKeyHashMovesWithEveryField(t *testing.T) {
	base := Key{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	mutations := map[string]func(*Key){
		"app":     func(k *Key) { k.App = "Hmmer" },
		"variant": func(k *Key) { k.Variant = "combination" },
		"seed":    func(k *Key) { k.Seed = 2 },
		"scale":   func(k *Key) { k.Scale = 2 },
		"prog":    func(k *Key) { k.ProgHash = "def" },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		k := base
		mutate(&k)
		if prev, dup := seen[k.Hash()]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k.Hash()] = name
	}
}

func TestKeyMatches(t *testing.T) {
	k := Key{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	m := Meta{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"}
	if !k.Matches(m) {
		t.Fatal("matching meta rejected")
	}
	m.ProgHash = "def"
	if k.Matches(m) {
		t.Fatal("mismatched program hash accepted")
	}
}
