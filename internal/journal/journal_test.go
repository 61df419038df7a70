package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec is a record with a validity rule like the coordinator's: only ok
// records count.
type rec struct {
	Key    string `json:"key"`
	Status string `json:"status"`
	N      int    `json:"n,omitempty"`
}

func recKey(r rec) string {
	if r.Status != "ok" {
		return ""
	}
	return r.Key
}

func open(t *testing.T, path string) *Log[rec] {
	t.Helper()
	l, err := Open(path, recKey)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestLogRoundTripAndValidityRule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "journal.jsonl") // Open creates the directory
	l := open(t, path)
	for _, r := range []rec{
		{Key: "a", Status: "ok", N: 1},
		{Key: "b", Status: "ok", N: 2},
		{Key: "a", Status: "ok", N: 9}, // already on file: no-op
		{Key: "c", Status: "failed"},   // the rule refuses it: never written
		{Key: "", Status: "ok"},        // no key: never written
	} {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
	if got, ok := l.Lookup("a"); l.Len() != 2 || !ok || got.N != 1 {
		t.Fatalf("state after appends: len=%d a=%+v %v", l.Len(), got, ok)
	}
	l.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"key":"a","status":"ok","n":1}` + "\n" + `{"key":"b","status":"ok","n":2}` + "\n"
	if string(b) != want {
		t.Errorf("file =\n%s\nwant\n%s", b, want)
	}
	l2 := open(t, path)
	if got, ok := l2.Lookup("b"); l2.Len() != 2 || !ok || got.N != 2 {
		t.Errorf("replayed state: len=%d b=%+v %v", l2.Len(), got, ok)
	}
}

func TestOpenIgnoresWhatItCannotTrust(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"key":"good","status":"ok"}` + "\n" +
		`{"key":"failed","status":"error"}` + "\n" + // refused by the rule
		`"a string, not a record"` + "\n" + // JSON, but not an R
		"\x00garbage{{{\n" + // a corrupt interior line
		"\n" +
		`{"key":"tor` // torn tail
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	if _, ok := l.Lookup("good"); l.Len() != 1 || !ok {
		t.Fatalf("replay kept %d records, want only the good one", l.Len())
	}
	if err := l.Append(rec{Key: "next", Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The torn fragment sits on its own line, fused with nothing, and
	// both complete records replay.
	b, _ := os.ReadFile(path)
	if !strings.HasSuffix(string(b), `{"key":"tor`+"\n"+`{"key":"next","status":"ok"}`+"\n") {
		t.Errorf("append after a torn tail left:\n%s", b)
	}
	if l2 := open(t, path); l2.Len() != 2 {
		t.Errorf("replay after repair: len=%d, want 2", l2.Len())
	}
}

func TestAppendTerminatesAnUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"a","status":"ok"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, path)
	if l.Len() != 1 {
		t.Fatalf("a whole record lacking only its newline was dropped")
	}
	if err := l.Append(rec{Key: "b", Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if lines := scanFile(t, path); len(lines.Good) != 2 || lines.Damaged() {
		t.Errorf("after append: %d good lines, damaged=%v", len(lines.Good), lines.Damaged())
	}
}

func scanFile(t *testing.T, path string) Lines {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return Scan(b)
}

func TestScanClassifies(t *testing.T) {
	for _, tc := range []struct {
		name, in                 string
		good, corrupt            int
		torn, missing, unchanged bool
	}{
		{name: "empty", in: "", unchanged: true},
		{name: "clean", in: "{}\n{\"a\":1}\n", good: 2, unchanged: true},
		{name: "blank lines are not damage", in: "{}\n\n  \n{}\n", good: 2, unchanged: true},
		{name: "torn tail", in: "{}\n{\"a\":", good: 1, torn: true},
		{name: "missing newline", in: "{}\n{\"a\":1}", good: 2, missing: true},
		{name: "corrupt interior", in: "{}\nnope\n{}\n", good: 2, corrupt: 1},
		{name: "only a fragment", in: "{\"a", torn: true},
	} {
		l := Scan([]byte(tc.in))
		if len(l.Good) != tc.good || l.Corrupt != tc.corrupt || l.TornTail != tc.torn ||
			l.MissingNewline != tc.missing || l.Damaged() == tc.unchanged {
			t.Errorf("%s: Scan = %d good, %d corrupt, torn %v, missing %v, damaged %v",
				tc.name, len(l.Good), l.Corrupt, l.TornTail, l.MissingNewline, l.Damaged())
		}
	}
}

// FuzzJournal holds the scanner and the log to their contract on any
// bytes a crash, a bad disk or a stranger could leave in a journal: no
// panic; every kept line is whole JSON; nothing of an unterminated,
// unparseable tail is kept; a rewrite is a fixed point that keeps
// exactly the good lines; and Open replays only records that stand on
// a kept line, then appends so that the next replay sees them all.
func FuzzJournal(f *testing.F) {
	f.Add([]byte(`{"key":"a","status":"ok"}` + "\n"))
	f.Add([]byte(`{"key":"a","status":"ok"}` + "\n" + `{"key":"b","sta`))
	f.Add([]byte(`{"key":"a","status":"ok"}`))
	f.Add([]byte("\n\n{}\nnull\n\x00\xff\n"))
	f.Add([]byte(`{"key":"a","status":"failed"}` + "\r\n" + `[1,2]` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		lines := Scan(b)
		for _, line := range lines.Good {
			if !json.Valid(line) || bytes.IndexByte(line, '\n') >= 0 {
				t.Fatalf("kept line %q is not one whole JSON line", line)
			}
		}
		if i := bytes.LastIndexByte(b, '\n'); lines.TornTail && len(lines.Good) > 0 {
			if last := lines.Good[len(lines.Good)-1]; i < 0 || &last[0] == &b[i+1] {
				t.Fatalf("a record was kept from the torn tail %q", b[i+1:])
			}
		}
		var clean bytes.Buffer
		if err := lines.Rewrite(&clean); err != nil {
			t.Fatal(err)
		}
		again := Scan(clean.Bytes())
		if again.Damaged() || len(again.Good) != len(lines.Good) {
			t.Fatalf("rewrite is not clean: %+v", again)
		}
		for i := range again.Good {
			if !bytes.Equal(again.Good[i], lines.Good[i]) {
				t.Fatalf("rewrite changed line %d: %q -> %q", i, lines.Good[i], again.Good[i])
			}
		}
		var twice bytes.Buffer
		again.Rewrite(&twice)
		if !bytes.Equal(twice.Bytes(), clean.Bytes()) {
			t.Fatal("scan -> rewrite -> scan -> rewrite is not a fixed point")
		}

		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, recKey)
		if err != nil {
			t.Fatal(err)
		}
		onKept := map[string]bool{}
		for _, line := range lines.Good {
			var r rec
			if json.Unmarshal(line, &r) == nil && recKey(r) != "" {
				onKept[recKey(r)] = true
			}
		}
		if l.Len() != len(onKept) {
			t.Fatalf("Open replayed %d records, the kept lines hold %d", l.Len(), len(onKept))
		}
		before := l.Len()
		if err := l.Append(rec{Key: "fuzz-appended", Status: "ok"}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, err := Open(path, recKey)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if _, ok := l2.Lookup("fuzz-appended"); !ok || l2.Len() < before {
			t.Fatalf("append after %q did not replay (len %d -> %d)", b, before, l2.Len())
		}
	})
}
