// The fsck suite damages real engine state — cache entries written by
// a live scheduler, trace files in the durable format, the journals
// earlier binaries left — in every way the fault injector can, then
// checks that the scrubber finds all of it, quarantines without
// deleting, repairs what is repairable, and that a subsequent resume
// recomputes exactly the quarantined cells.
package fsck_test

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioperf5/internal/cas"
	"bioperf5/internal/cpu"
	"bioperf5/internal/fsck"
	"bioperf5/internal/journal"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

// seedState runs n real cells through an engine backed by dir (cache +
// traces), then journals each cell the way earlier binaries did beside a
// local sweep's cache — such directories still exist, and fsck scrubs
// their journals like a parent coordinator's — so the tree at rest holds
// every kind of file fsck scans.
func seedState(t *testing.T, dir string, n int) {
	t.Helper()
	eng := sched.New(sched.Options{Workers: 2, CacheDir: dir})
	for i := 0; i < n; i++ {
		_, err := eng.Run(context.Background(), sched.Job{
			App: "Fasta", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(),
			Seed: int64(i + 1), Scale: 1,
		})
		if err != nil {
			t.Fatalf("seed cell %d: %v", i, err)
		}
	}
	eng.Close()
	var lines []byte
	for _, e := range cacheEntries(t, dir) {
		b, err := json.Marshal(hashRecord{Hash: strings.TrimSuffix(filepath.Base(e), ".json"), Status: "ok"})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), lines, 0o644); err != nil {
		t.Fatal(err)
	}
}

// hashRecord is one line of a local sweep's completion journal.
type hashRecord struct {
	Hash   string `json:"hash"`
	Status string `json:"status"`
}

// journalHashes reads the journal at path the way its writer replayed
// it: the hashes of the records on its good lines.
func journalHashes(t *testing.T, path string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]bool{}
	for _, line := range journal.Scan(b).Good {
		var r hashRecord
		if json.Unmarshal(line, &r) == nil && r.Hash != "" {
			hashes[r.Hash] = true
		}
	}
	return hashes
}

// cacheEntries globs the content-addressed result files under dir.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no cache entries under %s (err=%v)", dir, err)
	}
	return paths
}

// truncateHalf applies the exact damage the injector's mangle does.
func truncateHalf(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// writeTrace builds a real encoded trace answering (seed) and writes it
// at its content address under dir, returning the path.
func writeTrace(t *testing.T, dir string, seed int64) string {
	t.Helper()
	var b trace.Builder
	for pc := 0; pc < 64; pc++ {
		b.Add(trace.Record{PC: pc, HasEA: true, EA: uint64(pc * 64)})
	}
	tr, err := b.Finish(trace.Meta{App: "Fasta", Variant: "original", Seed: seed,
		Scale: 1, ProgHash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	hash := trace.KeyFromMeta(tr.Meta).Hash()
	path := filepath.Join(dir, hash+".trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runFsck(t *testing.T, dirs ...string) *fsck.Report {
	t.Helper()
	rep, err := fsck.Run(dirs)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	return rep
}

func findKind(rep *fsck.Report, kind string) *fsck.Finding {
	for i := range rep.Findings {
		if rep.Findings[i].Kind == kind {
			return &rep.Findings[i]
		}
	}
	return nil
}

func TestFsckCleanTreeFindsNothing(t *testing.T) {
	dir := t.TempDir()
	seedState(t, dir, 2)
	rep := runFsck(t, dir)
	if rep.Damaged != 0 || rep.Quarantined != 0 || rep.Repaired != 0 {
		t.Fatalf("clean tree reported damage: %+v", rep)
	}
	if rep.Scanned == 0 || rep.OK != rep.Scanned {
		t.Fatalf("scanned %d, ok %d; want everything scanned ok", rep.Scanned, rep.OK)
	}
}

func TestFsckQuarantinesTruncatedCacheEntry(t *testing.T) {
	dir := t.TempDir()
	seedState(t, dir, 2)
	victim := cacheEntries(t, dir)[0]
	truncateHalf(t, victim)
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindCacheCorrupt)
	if f == nil || f.Path != victim {
		t.Fatalf("no cache-entry-corrupt finding for %s: %+v", victim, rep)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at its address: %v", err)
	}
	if _, err := os.Stat(f.QuarantinedTo); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	if !strings.Contains(f.QuarantinedTo, fsck.QuarantineDirName) {
		t.Errorf("quarantined to %s, want under %s/", f.QuarantinedTo, fsck.QuarantineDirName)
	}
}

func TestFsckQuarantinesWrongAddressEntry(t *testing.T) {
	dir := t.TempDir()
	seedState(t, dir, 2)
	entries := cacheEntries(t, dir)
	// A perfectly valid entry filed under another entry's address: the
	// kind of damage a buggy sync tool or a collision would produce.
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[1], b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindCacheCorrupt)
	if f == nil || f.Path != entries[1] {
		t.Fatalf("misfiled entry not caught: %+v", rep)
	}
}

// TestFsckQuarantinesTraceThatCannotReplay: a file whose checksum is
// sound but whose payload disagrees with its record count, or whose
// meta names an older format version (a file from before the current
// layout), was not written by this program; a store would refuse it
// too, and the next use recaptures it.
func TestFsckQuarantinesTraceThatCannotReplay(t *testing.T) {
	for name, damage := range map[string]func(*trace.Meta){
		"record count":     func(m *trace.Meta) { m.Records++ },
		"format version 2": func(m *trace.Meta) { m.Schema = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeTrace(t, dir, 1)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			good, err := trace.DecodeFile(b)
			if err != nil {
				t.Fatal(err)
			}
			bad := &trace.Trace{Meta: good.Meta, Payload: good.Payload}
			damage(&bad.Meta)
			enc, err := bad.EncodeFile()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			rep := runFsck(t, dir)
			f := findKind(rep, fsck.KindTraceCorrupt)
			if f == nil || f.Path != path {
				t.Fatalf("unreplayable trace not caught: %+v", rep)
			}
			if _, err := os.Stat(f.QuarantinedTo); err != nil {
				t.Errorf("quarantined copy missing: %v", err)
			}
		})
	}
}

func TestFsckQuarantinesTornTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, 1)
	truncateHalf(t, path)
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindTraceCorrupt)
	if f == nil || f.Path != path {
		t.Fatalf("torn trace not caught: %+v", rep)
	}
	if _, err := os.Stat(f.QuarantinedTo); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
}

func TestFsckQuarantinesTraceAtWrongAddress(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, 1)
	// Re-file the (internally valid) trace under a different hex stem.
	wrong := filepath.Join(dir, strings.Repeat("ab", 32)+".trace")
	if err := os.Rename(path, wrong); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindTraceKeyMismatch)
	if f == nil || f.Path != wrong {
		t.Fatalf("misfiled trace not caught: %+v", rep)
	}
}

func TestFsckRepairsTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	content := `{"hash":"aaa","status":"ok"}` + "\n" +
		`{"hash":"bbb","status":"ok"}` + "\n" +
		`{"hash":"cc` // torn mid-record, no newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindJournalTornTail)
	if f == nil || !f.Repaired {
		t.Fatalf("torn tail not repaired: %+v", rep)
	}
	if _, err := os.Stat(f.QuarantinedTo); err != nil {
		t.Errorf("original journal bytes not preserved: %v", err)
	}
	if h := journalHashes(t, path); len(h) != 2 || !h["aaa"] || !h["bbb"] {
		t.Errorf("repaired journal lost records: %v", h)
	}
	b, _ := os.ReadFile(path)
	if len(b) == 0 || b[len(b)-1] != '\n' {
		t.Error("repaired journal does not end in a newline")
	}
}

func TestFsckDropsCorruptInteriorJournalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	content := `{"hash":"aaa","status":"ok"}` + "\n" +
		"\x00\x01garbage{{{" + "\n" +
		`{"hash":"bbb","status":"ok"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindJournalBadLine)
	if f == nil || !f.Repaired || f.QuarantinedTo == "" {
		t.Fatalf("corrupt interior line not handled: %+v", rep)
	}
	if h := journalHashes(t, path); len(h) != 2 {
		t.Errorf("repaired journal has %d records, want 2", len(h))
	}
}

func TestFsckRestoresMissingFinalNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	// A complete, valid record that lost only its terminator: nothing
	// to quarantine, just the newline to restore.
	if err := os.WriteFile(path, []byte(`{"hash":"aaa","status":"ok"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	if rep.Repaired != 1 || rep.Quarantined != 0 {
		t.Fatalf("repaired=%d quarantined=%d, want 1/0: %+v", rep.Repaired, rep.Quarantined, rep)
	}
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 || b[len(b)-1] != '\n' {
		t.Errorf("newline not restored: %q (%v)", b, err)
	}
}

func TestFsckQuarantinesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, strings.Repeat("ab", 32)+".tmp12345")
	if err := os.WriteFile(stale, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runFsck(t, dir)
	f := findKind(rep, fsck.KindStaleTemp)
	if f == nil || f.Path != stale {
		t.Fatalf("stale temp not caught: %+v", rep)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp still present")
	}
}

// TestFsckQuarantinesInterruptedAtomicWrites: every durable file —
// blobs, the resume manifest, fsck's own journal repair — is written by
// cas.WriteFileAtomic, so whatever a crash inside any of those writes
// leaves behind carries the one temp name the sweep looks for.  (The
// manifest's and the repair's temps used to be named .manifest-*.json
// and .fsck-*, which the sweep never matched.)
func TestFsckQuarantinesInterruptedAtomicWrites(t *testing.T) {
	dir := t.TempDir()
	names := []string{"manifest.json", "journal.jsonl", strings.Repeat("ab", 32) + ".trace"}
	for _, name := range names {
		func() {
			defer func() { recover() }()
			cas.WriteFileAtomic(filepath.Join(dir, name), func(w io.Writer) error {
				io.WriteString(w, "half a wr")
				panic("killed mid-write")
			})
		}()
	}
	rep := runFsck(t, dir)
	if rep.Quarantined != len(names) || rep.Damaged != len(names) {
		t.Fatalf("quarantined %d of %d interrupted writes: %+v", rep.Quarantined, len(names), rep)
	}
	for _, f := range rep.Findings {
		if f.Kind != fsck.KindStaleTemp {
			t.Errorf("%s reported as %s, want %s", f.Path, f.Kind, fsck.KindStaleTemp)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 || left[0].Name() != fsck.QuarantineDirName {
		t.Errorf("state dir still holds %v", left)
	}
}

func TestFsckIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	seedState(t, dir, 2)
	truncateHalf(t, cacheEntries(t, dir)[0])
	first := runFsck(t, dir)
	if first.Damaged == 0 {
		t.Fatal("first pass found nothing")
	}
	second := runFsck(t, dir)
	if second.Damaged != 0 || second.Quarantined != 0 || second.Repaired != 0 {
		t.Fatalf("second pass re-reported damage (quarantine rescanned?): %+v", second)
	}
}

func TestFsckErrors(t *testing.T) {
	if _, err := fsck.Run(nil); err == nil {
		t.Error("no dirs accepted")
	}
	if _, err := fsck.Run([]string{"/no/such/dir/bioperf5"}); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestFsckThenResumeRecomputesOnlyQuarantined is the scrubber's
// acceptance test: damage some cells of a finished sweep, fsck, then
// resume against the same directory — the engine must recompute
// exactly the quarantined cells and serve the rest from its cache.
func TestFsckThenResumeRecomputesOnlyQuarantined(t *testing.T) {
	dir := t.TempDir()
	const cells = 4
	seedState(t, dir, cells)
	entries := cacheEntries(t, dir)
	if len(entries) != cells {
		t.Fatalf("seeded %d entries, want %d", len(entries), cells)
	}
	truncateHalf(t, entries[0])
	truncateHalf(t, entries[2])

	rep := runFsck(t, dir)
	if rep.Quarantined != 2 || rep.Damaged != 2 {
		t.Fatalf("fsck quarantined %d / damaged %d, want 2/2: %+v",
			rep.Quarantined, rep.Damaged, rep)
	}

	if h := journalHashes(t, filepath.Join(dir, "journal.jsonl")); len(h) != cells {
		t.Fatalf("journal survived fsck with %d records, want %d", len(h), cells)
	}
	eng := sched.New(sched.Options{Workers: 2, CacheDir: dir})
	defer eng.Close()
	for i := 0; i < cells; i++ {
		if _, err := eng.Run(context.Background(), sched.Job{
			App: "Fasta", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(),
			Seed: int64(i + 1), Scale: 1,
		}); err != nil {
			t.Fatalf("resumed cell %d: %v", i, err)
		}
	}
	st := eng.Stats()
	if st.Computed != 2 {
		t.Errorf("resume recomputed %d cells, want exactly the 2 quarantined (stats %+v)", st.Computed, st)
	}
	if st.DiskHits != cells-2 {
		t.Errorf("resume served %d cells from disk, want %d", st.DiskHits, cells-2)
	}
	if st.DiskCorrupt != 0 {
		t.Errorf("resume still saw %d corrupt entries after fsck", st.DiskCorrupt)
	}
}
