// Package align implements pairwise sequence alignment with affine gap
// penalties: Smith-Waterman local alignment in Gotoh's formulation (the
// Fasta ssearch `dropgsw` kernel the paper profiles) with traceback, its
// linear-memory score-only form (the form the DP kernels take on the
// simulator), and BLAST-style X-drop ungapped and gapped extension.
package align

import (
	"fmt"
	"strings"

	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
)

// negInf is a safely-addable minus infinity for DP initialization.
const negInf = int(-1) << 40

// OpKind is one edit operation kind in a traceback.
type OpKind uint8

// Edit operations: match/mismatch consumes both sequences, Delete
// consumes A only (gap in B), Insert consumes B only (gap in A).
const (
	OpMatch OpKind = iota
	OpDelete
	OpInsert
)

// EditOp is a run of identical edit operations.
type EditOp struct {
	Kind OpKind
	N    int
}

// Result is an alignment with its traceback.
type Result struct {
	A, B   *seq.Seq
	Score  int
	StartA int // offset of the aligned region in A
	StartB int
	EndA   int // one past the last aligned residue of A
	EndB   int
	Ops    []EditOp
}

func validate(a, b *seq.Seq, m *score.Matrix, gap score.Gap) error {
	if a.Alpha != m.Alpha || b.Alpha != m.Alpha {
		return fmt.Errorf("align: sequence/matrix alphabet mismatch")
	}
	return gap.Validate()
}

// dpTables holds the Gotoh matrices for Local's traceback.
type dpTables struct {
	n, m    int
	h, e, f []int
}

func newTables(n, m int) *dpTables {
	size := (n + 1) * (m + 1)
	return &dpTables{n: n, m: m,
		h: make([]int, size), e: make([]int, size), f: make([]int, size)}
}

func (t *dpTables) idx(i, j int) int { return i*(t.m+1) + j }

// Local computes the optimal Smith-Waterman local alignment (Gotoh
// affine gaps) with traceback — the dropgsw computation.
func Local(a, b *seq.Seq, mat *score.Matrix, gap score.Gap) (*Result, error) {
	if err := validate(a, b, mat, gap); err != nil {
		return nil, err
	}
	n, m := a.Len(), b.Len()
	t := newTables(n, m)
	open := gap.Open + gap.Extend
	ext := gap.Extend
	for i := 0; i <= n; i++ {
		t.e[t.idx(i, 0)] = negInf
		t.f[t.idx(i, 0)] = negInf
	}
	for j := 0; j <= m; j++ {
		t.e[t.idx(0, j)] = negInf
		t.f[t.idx(0, j)] = negInf
	}
	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			ij := t.idx(i, j)
			up, left, diag := t.idx(i-1, j), t.idx(i, j-1), t.idx(i-1, j-1)
			e := t.e[left] - ext
			if v := t.h[left] - open; v > e {
				e = v
			}
			f := t.f[up] - ext
			if v := t.h[up] - open; v > f {
				f = v
			}
			h := t.h[diag] + mat.Score(a.Code[i-1], b.Code[j-1])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			t.e[ij], t.f[ij], t.h[ij] = e, f, h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	res := &Result{A: a, B: b, Score: best, EndA: bi, EndB: bj}
	res.Ops, res.StartA, res.StartB = tracebackLocal(t, a, b, mat, gap, bi, bj)
	return res, nil
}

func tracebackLocal(t *dpTables, a, b *seq.Seq, mat *score.Matrix, gap score.Gap, bi, bj int) ([]EditOp, int, int) {
	open := gap.Open + gap.Extend
	var rev []OpKind
	i, j := bi, bj
	state := 0
	for i > 0 && j > 0 {
		ij := t.idx(i, j)
		if state == 0 && t.h[ij] == 0 {
			break
		}
		switch state {
		case 0:
			switch {
			case t.h[ij] == t.h[t.idx(i-1, j-1)]+mat.Score(a.Code[i-1], b.Code[j-1]):
				rev = append(rev, OpMatch)
				i--
				j--
			case t.h[ij] == t.e[ij]:
				state = 1
			default:
				state = 2
			}
		case 1:
			left := t.idx(i, j-1)
			rev = append(rev, OpInsert)
			if t.e[ij] == t.h[left]-open {
				state = 0
			}
			j--
		case 2:
			up := t.idx(i-1, j)
			rev = append(rev, OpDelete)
			if t.f[ij] == t.h[up]-open {
				state = 0
			}
			i--
		}
	}
	return runLength(reverseOps(rev)), i, j
}

func reverseOps(rev []OpKind) []OpKind {
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

func runLength(ops []OpKind) []EditOp {
	var out []EditOp
	for _, op := range ops {
		if len(out) > 0 && out[len(out)-1].Kind == op {
			out[len(out)-1].N++
		} else {
			out = append(out, EditOp{Kind: op, N: 1})
		}
	}
	return out
}

// Identity returns matched-identical residues over aligned columns.
func (r *Result) Identity() float64 {
	ai, bi := r.StartA, r.StartB
	cols, same := 0, 0
	for _, op := range r.Ops {
		for k := 0; k < op.N; k++ {
			cols++
			switch op.Kind {
			case OpMatch:
				if r.A.Code[ai] == r.B.Code[bi] {
					same++
				}
				ai++
				bi++
			case OpDelete:
				ai++
			case OpInsert:
				bi++
			}
		}
	}
	if cols == 0 {
		return 0
	}
	return float64(same) / float64(cols)
}

// Format renders the alignment in a blast-like three-line layout.
func (r *Result) Format(width int) string {
	if width <= 0 {
		width = 60
	}
	var la, lm, lb []byte
	ai, bi := r.StartA, r.StartB
	for _, op := range r.Ops {
		for k := 0; k < op.N; k++ {
			switch op.Kind {
			case OpMatch:
				ca := r.A.Alpha.Letter(r.A.Code[ai])
				cb := r.B.Alpha.Letter(r.B.Code[bi])
				la = append(la, ca)
				lb = append(lb, cb)
				if ca == cb {
					lm = append(lm, '|')
				} else {
					lm = append(lm, ' ')
				}
				ai++
				bi++
			case OpDelete:
				la = append(la, r.A.Alpha.Letter(r.A.Code[ai]))
				lb = append(lb, '-')
				lm = append(lm, ' ')
				ai++
			case OpInsert:
				la = append(la, '-')
				lb = append(lb, r.B.Alpha.Letter(r.B.Code[bi]))
				lm = append(lm, ' ')
				bi++
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s vs %s  score=%d  identity=%.1f%%\n",
		r.A.ID, r.B.ID, r.Score, 100*r.Identity())
	for off := 0; off < len(la); off += width {
		hi := off + width
		if hi > len(la) {
			hi = len(la)
		}
		fmt.Fprintf(&sb, "A: %s\n   %s\nB: %s\n", la[off:hi], lm[off:hi], lb[off:hi])
	}
	return sb.String()
}

// AlignedLength returns the number of alignment columns.
func (r *Result) AlignedLength() int {
	n := 0
	for _, op := range r.Ops {
		n += op.N
	}
	return n
}
