package score

import (
	"testing"

	"bioperf5/internal/bio/seq"
)

func TestStandardMatricesSymmetric(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, BLOSUM50} {
		if !m.Symmetric() {
			n := m.Alpha.Size()
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if m.Score(byte(i), byte(j)) != m.Score(byte(j), byte(i)) {
						t.Errorf("%s asymmetric at %c/%c: %d vs %d", m.Name,
							m.Alpha.Letter(byte(i)), m.Alpha.Letter(byte(j)),
							m.Score(byte(i), byte(j)), m.Score(byte(j), byte(i)))
					}
				}
			}
		}
	}
}

func TestDiagonalDominance(t *testing.T) {
	// Identity scores are the row maxima for substitution matrices
	// (standard property; guards against transcription errors).
	for _, m := range []*Matrix{BLOSUM62, BLOSUM50} {
		n := m.Alpha.Size()
		for i := 0; i < n; i++ {
			d := m.Score(byte(i), byte(i))
			if d <= 0 {
				t.Errorf("%s: diagonal %c = %d, want positive", m.Name, m.Alpha.Letter(byte(i)), d)
			}
			for j := 0; j < n; j++ {
				if j != i && m.Score(byte(i), byte(j)) > d {
					t.Errorf("%s: off-diagonal %c/%c (%d) exceeds diagonal (%d)",
						m.Name, m.Alpha.Letter(byte(i)), m.Alpha.Letter(byte(j)),
						m.Score(byte(i), byte(j)), d)
				}
			}
		}
	}
}

func TestKnownBlosum62Values(t *testing.T) {
	code := func(l byte) byte { return byte(seq.Protein.Code(l)) }
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'G', -2}, {'I', 'V', 3},
		{'D', 'E', 2}, {'K', 'R', 2}, {'F', 'Y', 3},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(code(c.a), code(c.b)); got != c.want {
			t.Errorf("BLOSUM62[%c][%c] = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRowAccess(t *testing.T) {
	a := byte(seq.Protein.Code('A'))
	row := BLOSUM62.Row(a)
	if len(row) != 20 {
		t.Fatalf("row length = %d", len(row))
	}
	for j := range row {
		if int(row[j]) != BLOSUM62.Score(a, byte(j)) {
			t.Errorf("Row/Score disagree at %d", j)
		}
	}
}

func TestMaxScore(t *testing.T) {
	if got := BLOSUM62.MaxScore(); got != 11 { // W/W
		t.Errorf("BLOSUM62 max = %d, want 11", got)
	}
	if got := BLOSUM50.MaxScore(); got != 15 { // W/W
		t.Errorf("BLOSUM50 max = %d, want 15", got)
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	if _, err := New("bad", seq.DNA, [][]int8{{1}}); err == nil {
		t.Error("short matrix accepted")
	}
	if _, err := New("bad", seq.DNA, [][]int8{{1, 2, 3, 4}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestGapValidate(t *testing.T) {
	if err := DefaultProteinGap.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Gap{Open: -1, Extend: 1}).Validate(); err == nil {
		t.Error("negative open accepted")
	}
	if err := (Gap{Open: 5, Extend: 0}).Validate(); err == nil {
		t.Error("zero extend accepted")
	}
}

func TestKarlinAltschulSanity(t *testing.T) {
	// BLOSUM62's ungapped lambda is 0.318; gaps can only lower it.
	if l := Blosum62Gapped11_1.Lambda; l <= 0 || l >= 0.318 {
		t.Errorf("gapped lambda %v, want in (0, 0.318)", l)
	}
	if Blosum62Gapped11_1.K <= 0 {
		t.Error("K must be positive")
	}
}
