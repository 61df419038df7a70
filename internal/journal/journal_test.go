package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

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

// FuzzJournal holds the scanner to its contract on any bytes a crash,
// a bad disk or a stranger could leave in a journal: no panic; every
// kept line is whole JSON; nothing of an unterminated, unparseable tail
// is kept; and a rewrite is a fixed point that keeps exactly the good
// lines.
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
	})
}
