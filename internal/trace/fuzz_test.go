package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"bioperf5/internal/cpu"
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
	tr, err := b.Finish(full.Meta)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func emptyTrace(tb testing.TB) *trace.Trace {
	tr, err := new(trace.Builder).Finish(trace.Meta{App: "empty"})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
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
// either fail DecodeFile as ErrCorrupt, or they are exactly one trace:
// the file re-encodes to the same bytes, the payload holds one legal
// head per record and one EA per memory op and nothing else,
// re-building the records reproduces the payload, and the trace
// replays — against its own program when its meta names one — to a
// report or ErrCorrupt, never a panic.
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
	r, err := tr.Records()
	n := r.Len()
	if err != nil || uint64(n) != tr.Meta.Records {
		t.Fatalf("%d heads for %d records: %v", n, tr.Meta.Records, err)
	}
	mem := 0
	for i := 0; i < n; i++ {
		h := r.Head(i)
		if h.MissLevel() > 2 || (!h.HasEA() && h.MissLevel() != 0) {
			t.Fatalf("head %d: miss level %d (memory op: %v)", i, h.MissLevel(), h.HasEA())
		}
		if h.HasEA() {
			mem++
		}
	}
	if len(tr.Payload) != 4*n+8*mem {
		t.Fatalf("%d payload bytes for %d records and %d memory ops", len(tr.Payload), n, mem)
	}
	var again trace.Builder
	for it := tr.Iter(); it.Next(); {
		again.Add(*it.Rec())
	}
	if re, err := again.Finish(tr.Meta); err != nil || !bytes.Equal(re.Payload, tr.Payload) {
		t.Fatalf("the decoded records do not re-encode to the payload (err %v)", err)
	}
	k, err := kernels.ByApp(tr.Meta.App)
	if err != nil {
		return
	}
	v, err := kernels.VariantByName(tr.Meta.Variant)
	if err != nil {
		return
	}
	if _, err := kernels.ReplayTrace(k, v, tr, cpu.POWER5Baseline()); err != nil && !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("replay: %v is not ErrCorrupt", err)
	}
}

// FuzzDecodeFile feeds the decoders everything a disk, an upstream hub
// or a PUT /v1/traces body can: whole captures, truncations, flipped
// bytes, and each of those again behind a corrected checksum.
func FuzzDecodeFile(f *testing.F) {
	for _, seed := range []*trace.Trace{
		captureHead(f, "Fasta", kernels.Branchy, 1500),
		captureHead(f, "Hmmer", kernels.Combination, 1500),
		emptyTrace(f),
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

// TestReplayRejectsMalformedPayload: a hand-built trace, which no
// DecodeFile has checked, fails replay as corrupt instead of panicking
// when its payload is too short for its heads or its memory ops, or a
// head carries flags no capture writes.
func TestReplayRejectsMalformedPayload(t *testing.T) {
	k, err := kernels.ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	tr := captureHead(t, "Fasta", kernels.Branchy, 1500)
	r, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	heads := 4 * r.Len()
	mem := -1 // the first memory op's record
	for i := 0; mem < 0; i++ {
		if r.Head(i).HasEA() {
			mem = i
		}
	}
	illegal := bytes.Clone(tr.Payload)
	binary.LittleEndian.PutUint32(illegal[4*mem:], uint32(r.Head(mem)|3<<2)) // miss level 3
	for name, payload := range map[string][]byte{
		"heads cut":          tr.Payload[:heads-1],
		"EAs cut":            tr.Payload[:len(tr.Payload)-1],
		"no EAs":             tr.Payload[:heads],
		"illegal miss level": illegal,
	} {
		bad := &trace.Trace{Meta: tr.Meta, Payload: payload}
		if _, err := kernels.ReplayTrace(k, kernels.Branchy, bad, cpu.POWER5Baseline()); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("%s: replay = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := kernels.ReplayTrace(k, kernels.Branchy, tr, cpu.POWER5Baseline()); err != nil {
		t.Errorf("the intact trace: %v", err)
	}
}
