package seq

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlphabetCoding(t *testing.T) {
	if Protein.Size() != 20 || DNA.Size() != 4 {
		t.Fatalf("alphabet sizes: protein=%d dna=%d", Protein.Size(), DNA.Size())
	}
	if Protein.Code('A') != 0 || Protein.Code('V') != 19 {
		t.Errorf("protein codes: A=%d V=%d", Protein.Code('A'), Protein.Code('V'))
	}
	if Protein.Code('a') != 0 {
		t.Error("lowercase not accepted")
	}
	if Protein.Code('Z') != -1 || Protein.Code('*') != -1 {
		t.Error("non-residues accepted")
	}
	for i := 0; i < DNA.Size(); i++ {
		if DNA.Code(DNA.Letter(byte(i))) != int8(i) {
			t.Errorf("dna letter/code round trip broken at %d", i)
		}
	}
}

func TestNewSeq(t *testing.T) {
	s, err := NewSeq("q", "ACDEF", Protein)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 || s.Letters() != "ACDEF" {
		t.Errorf("round trip: len=%d letters=%q", s.Len(), s.Letters())
	}
	if _, err := NewSeq("bad", "ACDEX!", Protein); err == nil {
		t.Error("invalid residue accepted")
	}
	// Whitespace is skipped.
	s2, err := NewSeq("ws", "AC D\nEF", Protein)
	if err != nil || s2.Letters() != "ACDEF" {
		t.Errorf("whitespace handling: %q, %v", s2.Letters(), err)
	}
}

func TestSub(t *testing.T) {
	s := MustSeq("q", "ACDEFGHIK", Protein)
	sub := s.Sub(2, 5)
	if sub.Letters() != "DEF" {
		t.Errorf("Sub = %q, want DEF", sub.Letters())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Protein, 42).Random("x", 100)
	b := NewGenerator(Protein, 42).Random("x", 100)
	if a.Letters() != b.Letters() {
		t.Error("same seed produced different sequences")
	}
	c := NewGenerator(Protein, 43).Random("x", 100)
	if a.Letters() == c.Letters() {
		t.Error("different seeds produced identical sequences")
	}
}

func TestGeneratorResidueFrequencies(t *testing.T) {
	g := NewGenerator(Protein, 7)
	const n = 200000
	s := g.Random("big", n)
	var counts [20]int
	for _, c := range s.Code {
		counts[c]++
	}
	// Leucine (index 10) is the most common residue at ~9%; Trp (17)
	// the rarest at ~1.3%.  Allow generous tolerance.
	lFrac := float64(counts[10]) / n
	wFrac := float64(counts[17]) / n
	if math.Abs(lFrac-0.090) > 0.01 {
		t.Errorf("Leu fraction = %.3f, want about 0.090", lFrac)
	}
	if math.Abs(wFrac-0.0133) > 0.005 {
		t.Errorf("Trp fraction = %.4f, want about 0.0133", wFrac)
	}
}

func TestMutateIdentity(t *testing.T) {
	g := NewGenerator(Protein, 5)
	anc := g.Random("anc", 2000)
	hom := g.Mutate(anc, "hom", 0.7, 0) // no indels: alignable position-wise
	if hom.Len() != anc.Len() {
		t.Fatalf("no-indel mutation changed length: %d vs %d", hom.Len(), anc.Len())
	}
	same := 0
	for i := range anc.Code {
		if anc.Code[i] == hom.Code[i] {
			same++
		}
	}
	frac := float64(same) / float64(anc.Len())
	// identity parameter 0.7 plus chance matches among substitutions.
	if frac < 0.68 || frac > 0.80 {
		t.Errorf("observed identity %.3f, want about 0.70-0.75", frac)
	}
}

func TestMutateIndels(t *testing.T) {
	g := NewGenerator(Protein, 6)
	anc := g.Random("anc", 1000)
	hom := g.Mutate(anc, "hom", 0.9, 0.05)
	if hom.Len() == anc.Len() {
		t.Log("note: indel mutation preserved length (possible but unlikely)")
	}
	if hom.Len() < anc.Len()/2 || hom.Len() > anc.Len()*2 {
		t.Errorf("mutated length %d wildly off ancestor %d", hom.Len(), anc.Len())
	}
}

func TestFamily(t *testing.T) {
	g := NewGenerator(Protein, 8)
	fam := g.Family("fam", 6, 120, 0.8)
	if len(fam) != 6 {
		t.Fatalf("family size = %d", len(fam))
	}
	ids := map[string]bool{}
	for _, s := range fam {
		if s.Len() < 60 || s.Len() > 240 {
			t.Errorf("family member length %d implausible for ancestor 120", s.Len())
		}
		if ids[s.ID] {
			t.Errorf("duplicate id %s", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestDatabasePlantsHomologs(t *testing.T) {
	g := NewGenerator(Protein, 9)
	q := g.Random("query", 200)
	db := g.Database("db", 50, 100, 300, q, 3)
	if len(db) != 50 {
		t.Fatalf("db size = %d", len(db))
	}
	planted := 0
	for _, s := range db {
		if strings.Contains(s.ID, "_hom") {
			planted++
		}
	}
	if planted == 0 || planted > 3 {
		t.Errorf("planted homologs = %d, want 1..3", planted)
	}
}

// TestWriteFASTA pins WriteFASTA's exact bytes: a ">id" header, the
// description after one space when there is one, then the letters
// wrapped at 60 columns with no trailing blank line.
func TestWriteFASTA(t *testing.T) {
	const row = "ACDEFGHIKLMNPQRSTVWY"
	letters := strings.Repeat(row, 4)
	var in []*Seq
	for _, c := range []struct {
		id string
		n  int
	}{{"one", 1}, {"sixty", 60}, {"sixty-one", 61}, {"seventy", 70}, {"described", 5}} {
		in = append(in, MustSeq(c.id, letters[:c.n], Protein))
	}
	in[4].Desc = "first sequence"
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, in); err != nil {
		t.Fatal(err)
	}
	const want = `>one
A
>sixty
ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY
>sixty-one
ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY
A
>seventy
ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY
ACDEFGHIKL
>described first sequence
ACDEF
`
	if got := buf.String(); got != want {
		t.Errorf("WriteFASTA wrote\n%s\nwant\n%s", got, want)
	}
}

// readFASTA is the test's own reader for WriteFASTA's output: ">" opens a
// record whose ID runs to the first space and whose description follows
// it; every other line is appended to the current record's letters.
func readFASTA(t *testing.T, text string, alpha *Alphabet) []*Seq {
	t.Helper()
	var out []*Seq
	var id, desc string
	var letters strings.Builder
	flush := func() {
		if id == "" {
			return
		}
		s, err := NewSeq(id, letters.String(), alpha)
		if err != nil {
			t.Fatalf("record %s: %v", id, err)
		}
		s.Desc = desc
		out = append(out, s)
		letters.Reset()
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, ">") {
			flush()
			id, desc, _ = strings.Cut(line[1:], " ")
			continue
		}
		if id == "" {
			t.Fatalf("letters %q before the first header", line)
		}
		letters.WriteString(line)
	}
	flush()
	return out
}

func TestFASTARoundTrip(t *testing.T) {
	g := NewGenerator(Protein, 10)
	in := []*Seq{g.Random("s1", 70), g.Random("s2", 61), g.Random("s3", 1)}
	in[0].Desc = "first sequence"
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := readFASTA(t, buf.String(), Protein)
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Letters() != in[i].Letters() {
			t.Errorf("record %d mismatch", i)
		}
	}
	if out[0].Desc != "first sequence" {
		t.Errorf("desc = %q", out[0].Desc)
	}
}

func TestQuickFASTARoundTrip(t *testing.T) {
	g := NewGenerator(Protein, 11)
	f := func(n uint16) bool {
		s := g.Random("q", int(n%500)+1)
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, []*Seq{s}); err != nil {
			return false
		}
		out := readFASTA(t, buf.String(), Protein)
		return len(out) == 1 && out[0].Letters() == s.Letters()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
