package branch

import (
	"errors"
	"strings"
	"testing"
)

// TestSpecCanonicalization pins the coalescing property the result
// caches rely on: every spelling of the same predictor has one
// canonical form.
func TestSpecCanonicalization(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "tournament:bits=12,hist=11"},
		{"tournament", "tournament:bits=12,hist=11"},
		{"  Tournament : hist=11 , bits=12 ", "tournament:bits=12,hist=11"},
		{"gshare", "gshare:bits=12,hist=11"},
		{"gshare:bits=12", "gshare:bits=12,hist=11"},
		{"gshare:hist=11,bits=12", "gshare:bits=12,hist=11"},
		{"gshare:bits=14", "gshare:bits=14,hist=11"},
		{"bimodal", "bimodal:bits=12"},
		{"static-taken", "static-taken"},
		{"static-not-taken", "static-not-taken"},
		{"perceptron", "perceptron:weights=256,hist=24"},
		{"perceptron:weights=256", "perceptron:weights=256,hist=24"},
		{"tage", "tage:tables=4,bits=10,tag=8,hist=2..64"},
		{"tage:tables=4,hist=2..64", "tage:tables=4,bits=10,tag=8,hist=2..64"},
		{"tage:hist=4..32,tables=6", "tage:tables=6,bits=10,tag=8,hist=4..32"},
		{"tage:hist=8", "tage:tables=4,bits=10,tag=8,hist=8..64"},
	}
	for _, c := range cases {
		got, err := CanonicalSpec(c.in)
		if err != nil {
			t.Errorf("CanonicalSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalSpec(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonicalization is idempotent.
		again, err := CanonicalSpec(got)
		if err != nil || again != got {
			t.Errorf("CanonicalSpec(%q) not idempotent: %q, %v", got, again, err)
		}
	}
}

// TestSpecErrors pins the structured error shape the serve 400s and
// CLI errors are built from.
func TestSpecErrors(t *testing.T) {
	cases := []struct {
		in    string
		field string
	}{
		{"tge", "kind"},
		{"gshare:", "kind"},
		{"gshare:bits", "kind"},
		{"gshare:bits=99", "bits"},
		{"gshare:bits=x", "bits"},
		{"gshare:entries=4", "entries"},
		{"tage:hist=64..2", "hist"},
		{"tage:hist=0..64", "hist"},
		{"perceptron:weights=0", "weights"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", c.in)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseSpec(%q): error %T is not a *SpecError", c.in, err)
			continue
		}
		if se.Field != c.field {
			t.Errorf("ParseSpec(%q): field %q, want %q", c.in, se.Field, c.field)
		}
		if se.Reason == "" {
			t.Errorf("ParseSpec(%q): empty reason", c.in)
		}
		if !strings.Contains(err.Error(), "registered:") {
			t.Errorf("ParseSpec(%q): error %q does not list registered predictors", c.in, err)
		}
	}
}

// TestNewFallsBackToTournament preserves the historical contract:
// unknown names instantiate the POWER5-like default instead of failing.
func TestNewFallsBackToTournament(t *testing.T) {
	p := New("no-such-predictor")
	if p.Name() != "tournament" {
		t.Fatalf("New fallback = %s, want tournament", p.Name())
	}
	if New("").Name() != "tournament" {
		t.Fatalf("New(\"\") should be the tournament default")
	}
	if New("tage:tables=4,hist=2..64").Name() != "tage" {
		t.Fatalf("New should accept full specs")
	}
}

// TestRegisteredListsEveryKind sanity-checks the registry listing used
// in error payloads and docs.
func TestRegisteredListsEveryKind(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 7 {
		t.Fatalf("Kinds() = %v, want 7 kinds", kinds)
	}
	for _, spec := range Registered() {
		if _, err := ParseSpec(spec); err != nil {
			t.Errorf("Registered() entry %q does not parse: %v", spec, err)
		}
	}
}

// TestTAGEHistoryLengths pins the geometric series.
func TestTAGEHistoryLengths(t *testing.T) {
	p, err := FromSpec("tage:tables=4,hist=2..64")
	if err != nil {
		t.Fatal(err)
	}
	got := p.(*TAGE).HistoryLengths()
	want := []int{2, 6, 20, 64}
	if len(got) != len(want) {
		t.Fatalf("history lengths %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history lengths %v, want %v", got, want)
		}
	}
}

// FuzzParseSpec: any string is either refused with a *SpecError or has
// a canonical form that is a fixed point of CanonicalSpec — the
// property every cell key rests on.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "tournament", "  Tournament : hist=11 , bits=12 ", "gshare", "gshare:hist=11,bits=12",
		"bimodal", "static-taken", "perceptron:weights=256", "tage:tables=4,hist=2..64",
		"tage:hist=4..32,tables=6", "tage:hist=8",
		"tge", "gshare:", "gshare:bits", "gshare:bits=99", "gshare:bits=x", "gshare:entries=4",
		"tage:hist=64..2", "tage:hist=0..64", "perceptron:weights=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := CanonicalSpec(s)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("CanonicalSpec(%q): error %T is not a *SpecError", s, err)
			}
			return
		}
		if again, err := CanonicalSpec(c); err != nil || again != c {
			t.Fatalf("CanonicalSpec(%q) = %q, which canonicalises to %q, %v", s, c, again, err)
		}
	})
}
