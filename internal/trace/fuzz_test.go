package trace_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"bioperf5/internal/kernels"
	"bioperf5/internal/trace"
)

// captureHead returns the first n records of a real kernel capture as
// a trace of their own: real PC and address deltas at a size a fuzzer
// can mutate thousands of times a second.
func captureHead(tb testing.TB, app string, v kernels.Variant, n int) *trace.Trace {
	tb.Helper()
	k, err := kernels.ByApp(app)
	if err != nil {
		tb.Fatal(err)
	}
	full, err := kernels.CaptureTrace(k, v, 1, 1, 1<<26)
	if err != nil {
		tb.Fatal(err)
	}
	var b trace.Builder
	for it := full.Iter(); b.Len() < uint64(n) && it.Next(); {
		b.Add(*it.Rec())
	}
	return b.Finish(full.Meta)
}

// reseal replaces the file's trailing checksum with the right one for
// the bytes before it, so a mutation gets past the SHA-256 and into the
// parsers behind it.
func reseal(b []byte) []byte {
	if len(b) < sha256.Size {
		return b
	}
	body := b[:len(b)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(bytes.Clone(body), sum[:]...)
}

// checkTraceFile is the trust-boundary invariant.  Bytes from outside
// either fail as ErrCorrupt — at the file layer or when the columns are
// built — or they are exactly one trace: the file re-encodes to the
// same bytes, the columns agree with the meta and with each other, and
// re-encoding the records reproduces the payload.
func checkTraceFile(t *testing.T, b []byte) {
	tr, err := trace.DecodeFile(b)
	if err != nil {
		if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("DecodeFile: %v is not ErrCorrupt", err)
		}
		return
	}
	if out, err := tr.EncodeFile(); err != nil || !bytes.Equal(out, b) {
		t.Fatalf("EncodeFile(DecodeFile(b)) != b (err %v)", err)
	}
	heads, eas, err := tr.Columns()
	if err != nil {
		if !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("Columns: %v is not ErrCorrupt", err)
		}
		if heads != nil || eas != nil {
			t.Fatal("a rejected payload left columns behind")
		}
		return
	}
	if uint64(len(heads)) != tr.Meta.Records {
		t.Fatalf("%d heads for %d records", len(heads), tr.Meta.Records)
	}
	mem := 0
	for i, h := range heads {
		if h.PC() < 0 || h.PC() >= 1<<28 {
			t.Fatalf("head %d: PC %d outside 28 bits", i, h.PC())
		}
		if h.MissLevel() > 2 || (!h.HasEA() && h.MissLevel() != 0) {
			t.Fatalf("head %d: miss level %d (memory op: %v)", i, h.MissLevel(), h.HasEA())
		}
		if h.HasEA() {
			mem++
		}
	}
	if mem != len(eas) {
		t.Fatalf("%d effective addresses for %d memory ops", len(eas), mem)
	}
	var again trace.Builder
	for it := tr.Iter(); it.Next(); {
		again.Add(*it.Rec())
	}
	if re := again.Finish(tr.Meta); !bytes.Equal(re.Payload, tr.Payload) {
		t.Fatal("the decoded records do not re-encode to the payload")
	}
}

// FuzzDecodeFile feeds the decoders everything a disk, an upstream hub
// or a PUT /v1/traces body can: whole captures, truncations, flipped
// bytes, and each of those again behind a corrected checksum.
func FuzzDecodeFile(f *testing.F) {
	for _, seed := range []*trace.Trace{
		captureHead(f, "Fasta", kernels.Branchy, 1500),
		captureHead(f, "Hmmer", kernels.Combination, 1500),
		new(trace.Builder).Finish(trace.Meta{App: "empty"}),
	} {
		file, err := seed.EncodeFile()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
		for _, n := range []int{len(file) - 1, len(file) - sha256.Size, len(file) / 2, 12} {
			f.Add(file[:n])
		}
		// Flips through the header, the meta, the payload and the
		// checksum; resealing turns the first three into parser input.
		for at := 0; at < len(file); at += len(file)/61 + 1 {
			flipped := bytes.Clone(file)
			flipped[at] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkTraceFile(t, b)
		checkTraceFile(t, reseal(b))
	})
}
