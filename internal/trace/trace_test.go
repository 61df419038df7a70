package trace

import (
	"encoding/binary"
	"errors"
	"slices"
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
	return b.Finish(Meta{App: "Fasta", Kernel: "dropgsw", Variant: "original",
		Seed: 1, Scale: 1, ProgHash: "abc", Result: 42})
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
	tr := b.Finish(Meta{})
	it := tr.Iter()
	if it.Next() {
		t.Fatal("Next on empty trace")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// undecoded returns the trace as DecodeFile would hand it over: meta
// and payload only, columns still to be built.
func undecoded(meta Meta, payload []byte) *Trace {
	return &Trace{Meta: meta, Payload: payload}
}

func iterErr(tr *Trace) error {
	it := tr.Iter()
	for it.Next() {
	}
	return it.Err()
}

func TestIterTruncatedPayload(t *testing.T) {
	tr := buildSample(t)
	cut := undecoded(tr.Meta, tr.Payload[:len(tr.Payload)/2])
	if err := iterErr(cut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: err = %v, want ErrCorrupt", err)
	}
}

func TestIterRecordCountMismatch(t *testing.T) {
	tr := buildSample(t)
	over := tr.Meta
	over.Records += 3 // claims more records than the payload holds
	if err := iterErr(undecoded(over, tr.Payload)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record overcount: err = %v, want ErrCorrupt", err)
	}
	under := tr.Meta
	under.Records -= 3 // payload longer than the claimed count
	if err := iterErr(undecoded(under, tr.Payload)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record undercount: err = %v, want ErrCorrupt", err)
	}
}

// TestBuilderHandsOverColumns: a captured trace carries its columns
// from Finish, and they are what decoding its payload would build.
func TestBuilderHandsOverColumns(t *testing.T) {
	before := Decodes()
	tr := buildSample(t)
	heads, eas, err := tr.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if got := Decodes() - before; got != 0 {
		t.Errorf("a built trace was decoded %d times, want 0", got)
	}
	dHeads, dEAs, err := undecoded(tr.Meta, tr.Payload).Columns()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(heads, dHeads) || !slices.Equal(eas, dEAs) {
		t.Errorf("built columns (%v, %v) != decoded columns (%v, %v)", heads, eas, dHeads, dEAs)
	}
	if cap(tr.Payload) != len(tr.Payload) || cap(heads) != len(heads) || cap(eas) != len(eas) {
		t.Errorf("sealed slices carry spare capacity: payload %d/%d heads %d/%d eas %d/%d",
			len(tr.Payload), cap(tr.Payload), len(heads), cap(heads), len(eas), cap(eas))
	}
	want := int64(len(tr.Payload)) + 4*int64(len(heads)) + 8*int64(len(eas)) + 256
	if tr.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want payload + columns = %d", tr.SizeBytes(), want)
	}
}

// TestBuilderIsReusableAfterFinish: Finish resets the builder, and the
// scratch it returns to the pool is not aliased by the sealed trace.
func TestBuilderIsReusableAfterFinish(t *testing.T) {
	var b Builder
	b.Add(Record{PC: 7, HasEA: true, EA: 64})
	first := b.Finish(Meta{})
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Finish", b.Len())
	}
	for _, r := range sampleRecords() {
		b.Add(r)
	}
	second := b.Finish(Meta{})
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
	if got := undecoded(second.Meta, second.Payload); iterErr(got) != nil {
		t.Errorf("second payload does not start from PC 0: %v", iterErr(got))
	}
}

// TestDecodeRejections walks the decoder's whole refusal list.  Every
// payload here sits behind a valid checksum in the attack it models,
// so the decoder is the only thing between it and the timing core.
func TestDecodeRejections(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	head := func(pcDelta int64, flags uint64) uint64 { return zigzag(pcDelta)<<headShift | flags }
	load := uint64(flagHasEA)
	cases := []struct {
		name    string
		records uint64
		payload []byte
		want    string
	}{
		{"short payload", 2, u(head(1, load), 8, head(1, load))[:3], "bad EA"},
		{"payload ends early", 3, u(head(1, load), 8, head(1, load), 8), "ends after 2 of 3"},
		{"count exceeds bytes", 1 << 60, u(head(1, 0)), "cannot hold"},
		{"trailing bytes", 1, u(head(1, 0), head(1, 0)), "1 trailing"},
		{"EA column short", 1, u(head(1, load)), "bad EA"},
		{"truncated head", 1, []byte{0x80}, "bad record head"},
		{"padded head", 1, []byte{0x80 | byte(head(1, 0)), 0x00}, "bad record head"},
		{"padded EA", 1, append(u(head(1, load)), 0x88, 0x00), "bad EA"},
		{"PC below zero", 1, u(head(-1, 0)), "does not fit"},
		{"PC beyond a head", 1, u(head(maxPC+1, 0)), "does not fit"},
		{"PC beyond a head by steps", 2, u(head(maxPC, 0), head(1, 0)), "does not fit"},
		{"miss level 3", 1, u(head(1, load|3<<flagMissShift), 8), "miss level 3"},
		{"miss level on a non-memory op", 1, u(head(1, 1<<flagMissShift)), "non-memory"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := undecoded(Meta{Records: c.records}, c.payload)
			heads, eas, err := tr.Columns()
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want ErrCorrupt mentioning %q", err, c.want)
			}
			if heads != nil || eas != nil {
				t.Error("a rejected payload left columns behind")
			}
			if again := iterErr(tr); again != err {
				t.Errorf("second use reports %v, want the first error", again)
			}
		})
	}
	// The edge of the accepted range decodes.
	ok := undecoded(Meta{Records: 2}, u(head(maxPC, flagTaken), head(-maxPC, load|2<<flagMissShift), 0))
	heads, eas, err := ok.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if heads[0].PC() != maxPC || !heads[0].Taken() || heads[1].PC() != 0 ||
		heads[1].MissLevel() != 2 || len(eas) != 1 || eas[0] != 0 {
		t.Errorf("edge payload decoded to %v %v", heads, eas)
	}
}

// TestBuilderRefusesWhatNoHeadHolds: a record outside the column
// format still encodes, but the trace reports corrupt instead of
// carrying a wrapped PC to the timing core.
func TestBuilderRefusesWhatNoHeadHolds(t *testing.T) {
	for _, r := range []Record{{PC: maxPC + 1}, {PC: -1}, {PC: 1, HasEA: true, MissLevel: 3}} {
		var b Builder
		b.Add(r)
		if err := iterErr(b.Finish(Meta{})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("record %+v: err = %v, want ErrCorrupt", r, err)
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
