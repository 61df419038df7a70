// Package score provides amino-acid substitution matrices (BLOSUM62,
// BLOSUM50), affine gap parameter sets, and the Karlin-Altschul
// statistical parameters BLAST's E-value computation needs.  Residue
// order everywhere is seq.Protein's: A R N D C Q E G H I L K M F P S T W Y V.
package score

import (
	"fmt"

	"bioperf5/internal/bio/seq"
)

// Matrix is a substitution matrix over an alphabet.
type Matrix struct {
	Name  string
	Alpha *seq.Alphabet
	cells []int8 // Size x Size row-major
}

// New builds a matrix from rows (must be Size x Size).
func New(name string, a *seq.Alphabet, rows [][]int8) (*Matrix, error) {
	n := a.Size()
	if len(rows) != n {
		return nil, fmt.Errorf("score: %s: %d rows, want %d", name, len(rows), n)
	}
	m := &Matrix{Name: name, Alpha: a, cells: make([]int8, n*n)}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("score: %s: row %d has %d cells, want %d", name, i, len(r), n)
		}
		copy(m.cells[i*n:], r)
	}
	return m, nil
}

func mustNew(name string, a *seq.Alphabet, rows [][]int8) *Matrix {
	m, err := New(name, a, rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Score returns the substitution score of residue codes a and b.
func (m *Matrix) Score(a, b byte) int {
	return int(m.cells[int(a)*m.Alpha.Size()+int(b)])
}

// Row returns the score row for residue code a (length Size); BLAST's
// neighbourhood expansion and Hmmer's match-emission conversion use it.
func (m *Matrix) Row(a byte) []int8 {
	n := m.Alpha.Size()
	return m.cells[int(a)*n : int(a)*n+n]
}

// Symmetric reports whether the matrix is symmetric (all standard
// substitution matrices are).
func (m *Matrix) Symmetric() bool {
	n := m.Alpha.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if m.cells[i*n+j] != m.cells[j*n+i] {
				return false
			}
		}
	}
	return true
}

// MaxScore returns the largest entry (used for X-drop bounds).
func (m *Matrix) MaxScore() int {
	best := int(m.cells[0])
	for _, c := range m.cells {
		if int(c) > best {
			best = int(c)
		}
	}
	return best
}

// Gap holds affine gap penalties as positive costs: opening a gap of
// length L costs Open + L*Extend.
type Gap struct {
	Open   int
	Extend int
}

// Validate rejects non-positive penalties.
func (g Gap) Validate() error {
	if g.Open < 0 || g.Extend <= 0 {
		return fmt.Errorf("score: invalid gap penalties %+v", g)
	}
	return nil
}

// DefaultProteinGap is the BLAST default 11/1 affine penalty.
var DefaultProteinGap = Gap{Open: 11, Extend: 1}

// ClustalWGap is the ClustalW protein default 10/0.2 (scaled x5 to stay
// integral: 50/1 against a x5-scaled matrix is equivalent; we keep 10/1
// which preserves the qualitative gap structure with integer DP).
var ClustalWGap = Gap{Open: 10, Extend: 1}

// KarlinAltschul carries the statistical parameters for E-values:
// E = K * m * n * exp(-lambda * S).
type KarlinAltschul struct {
	Lambda float64
	K      float64
}

// Blosum62Gapped11_1 is the standard gapped Karlin-Altschul parameter
// set for BLOSUM62 with gap penalties 11/1.
var Blosum62Gapped11_1 = KarlinAltschul{Lambda: 0.267, K: 0.041}

// BLOSUM62 is the standard matrix BLAST defaults to.
var BLOSUM62 = mustNew("BLOSUM62", seq.Protein, [][]int8{
	{4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
	{-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
	{-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
	{-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
	{0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
	{-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
	{-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
	{0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
	{-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
	{-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
	{-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
	{-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
	{-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
	{-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
	{-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
	{1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
	{-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
	{-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
	{0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
})

// BLOSUM50 is the ssearch (Fasta) default matrix.
var BLOSUM50 = mustNew("BLOSUM50", seq.Protein, [][]int8{
	{5, -2, -1, -2, -1, -1, -1, 0, -2, -1, -2, -1, -1, -3, -1, 1, 0, -3, -2, 0},
	{-2, 7, -1, -2, -4, 1, 0, -3, 0, -4, -3, 3, -2, -3, -3, -1, -1, -3, -1, -3},
	{-1, -1, 7, 2, -2, 0, 0, 0, 1, -3, -4, 0, -2, -4, -2, 1, 0, -4, -2, -3},
	{-2, -2, 2, 8, -4, 0, 2, -1, -1, -4, -4, -1, -4, -5, -1, 0, -1, -5, -3, -4},
	{-1, -4, -2, -4, 13, -3, -3, -3, -3, -2, -2, -3, -2, -2, -4, -1, -1, -5, -3, -1},
	{-1, 1, 0, 0, -3, 7, 2, -2, 1, -3, -2, 2, 0, -4, -1, 0, -1, -1, -1, -3},
	{-1, 0, 0, 2, -3, 2, 6, -3, 0, -4, -3, 1, -2, -3, -1, -1, -1, -3, -2, -3},
	{0, -3, 0, -1, -3, -2, -3, 8, -2, -4, -4, -2, -3, -4, -2, 0, -2, -3, -3, -4},
	{-2, 0, 1, -1, -3, 1, 0, -2, 10, -4, -3, 0, -1, -1, -2, -1, -2, -3, 2, -4},
	{-1, -4, -3, -4, -2, -3, -4, -4, -4, 5, 2, -3, 2, 0, -3, -3, -1, -3, -1, 4},
	{-2, -3, -4, -4, -2, -2, -3, -4, -3, 2, 5, -3, 3, 1, -4, -3, -1, -2, -1, 1},
	{-1, 3, 0, -1, -3, 2, 1, -2, 0, -3, -3, 6, -2, -4, -1, 0, -1, -3, -2, -3},
	{-1, -2, -2, -4, -2, 0, -2, -3, -1, 2, 3, -2, 7, 0, -3, -2, -1, -1, 0, 1},
	{-3, -3, -4, -5, -2, -4, -3, -4, -1, 0, 1, -4, 0, 8, -4, -3, -2, 1, 4, -1},
	{-1, -3, -2, -1, -4, -1, -1, -2, -2, -3, -4, -1, -3, -4, 10, -1, -1, -4, -3, -3},
	{1, -1, 1, 0, -1, 0, -1, 0, -1, -3, -3, 0, -2, -3, -1, 5, 2, -4, -2, -2},
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 2, 5, -3, -2, 0},
	{-3, -3, -4, -5, -5, -1, -3, -3, -3, -3, -2, -3, -1, 1, -4, -4, -3, 15, 2, -3},
	{-2, -1, -2, -3, -3, -1, -2, -3, 2, -1, -1, -2, 0, 4, -3, -2, -2, 2, 8, -1},
	{0, -3, -3, -4, -1, -3, -3, -4, -4, 4, 1, -3, 1, -1, -3, -2, 0, -3, -1, 5},
})
