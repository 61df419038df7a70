package sched

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bioperf5/internal/cpu"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func record(j *Journal, hash string) error {
	return j.Append(journalRecord{Hash: hash, Status: "ok"})
}

func done(j *Journal, hash string) bool {
	_, ok := j.Lookup(hash)
	return ok
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j := openTestJournal(t, path)
	if j.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", j.Len())
	}
	for _, h := range []string{"aaa", "bbb"} {
		if err := record(j, h); err != nil {
			t.Fatalf("Record(%s): %v", h, err)
		}
	}
	if err := record(j, "aaa"); err != nil { // idempotent
		t.Fatalf("re-Record: %v", err)
	}
	if j.Len() != 2 || !done(j, "aaa") || !done(j, "bbb") || done(j, "ccc") {
		t.Errorf("journal state wrong: len=%d", j.Len())
	}
	j.Close()

	// Reopen replays the records.
	j2 := openTestJournal(t, path)
	if j2.Len() != 2 || !done(j2, "aaa") || !done(j2, "bbb") {
		t.Errorf("replayed state wrong: len=%d", j2.Len())
	}
	// The file stays one record per line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 2 {
		t.Errorf("journal has %d lines, want 2:\n%s", got, b)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	// One intact record followed by a record cut mid-write, no newline —
	// the state a SIGKILL during an append leaves behind.
	torn := `{"hash":"good","status":"ok"}` + "\n" + `{"hash":"tor`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, path)
	if !done(j, "good") || j.Len() != 1 {
		t.Fatalf("intact record lost: len=%d", j.Len())
	}
	if err := record(j, "next"); err != nil {
		t.Fatalf("Record after torn tail: %v", err)
	}
	j.Close()

	// The repaired file must replay both complete records, and the torn
	// fragment must sit on its own line, fused with nothing.
	j2 := openTestJournal(t, path)
	if j2.Len() != 2 || !done(j2, "good") || !done(j2, "next") {
		t.Errorf("replay after repair: len=%d", j2.Len())
	}
	b, _ := os.ReadFile(path)
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if strings.Contains(line, "tor") && strings.Contains(line, "next") {
			t.Errorf("torn fragment fused with a fresh record: %q", line)
		}
	}
}

func TestEngineJournalRecordsAndResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	var computes atomic.Int64
	run := func(j *Journal) *Engine {
		return stubEngine(t, Options{Workers: 1, CacheDir: dir, Journal: j},
			func(job Job) (cpu.Report, error) {
				computes.Add(1)
				return cpu.Report{Counters: cpu.Counters{Cycles: 11}}, nil
			})
	}

	j1 := openTestJournal(t, path)
	e1 := run(j1)
	a, b := baseJob(), baseJob()
	b.Seed = 2
	for _, job := range []Job{a, b} {
		if _, err := e1.Run(context.Background(), job); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if st := e1.Stats(); st.Journaled != 2 || st.Resumed != 0 {
		t.Errorf("first engine stats = %+v", st)
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2", computes.Load())
	}
	j1.Close()

	// A fresh engine over the same directory + journal resumes: both
	// cells come from the disk cache and count as resumed, not computed.
	j2 := openTestJournal(t, path)
	e2 := run(j2)
	for _, job := range []Job{a, b} {
		rep, err := e2.Run(context.Background(), job)
		if err != nil || rep.Counters.Cycles != 11 {
			t.Fatalf("resumed run = %+v, %v", rep, err)
		}
	}
	if st := e2.Stats(); st.Resumed != 2 || st.Computed != 0 || st.Journaled != 0 {
		t.Errorf("resumed engine stats = %+v", st)
	}
	if computes.Load() != 2 {
		t.Errorf("computes = %d after resume, want still 2", computes.Load())
	}
}
