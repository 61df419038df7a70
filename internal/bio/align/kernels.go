package align

import (
	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
)

// This file holds the linear-memory, score-only form of the local
// alignment recurrence — the exact loop the paper's applications spend
// their time in (dropgsw for ssearch; clustalw's forward_pass computes
// the same score), and the reference semantics the simulated kernels
// (package kernels) are validated against.

// LocalScore computes the Smith-Waterman Gotoh local alignment score
// using two rolling rows — the dropgsw kernel.
func LocalScore(a, b *seq.Seq, mat *score.Matrix, gap score.Gap) (int, error) {
	if err := validate(a, b, mat, gap); err != nil {
		return 0, err
	}
	n, m := a.Len(), b.Len()
	open := gap.Open + gap.Extend
	ext := gap.Extend
	h := make([]int, m+1) // H of previous row, updated in place
	e := make([]int, m+1) // E of current column positions
	for j := range e {
		e[j] = negInf
	}
	best := 0
	for i := 1; i <= n; i++ {
		f := negInf
		diag := h[0] // H[i-1][0] = 0 for local
		row := mat.Row(a.Code[i-1])
		for j := 1; j <= m; j++ {
			// max statements below are the hard-to-predict branches of
			// Section III when compiled naively.
			ev := e[j] - ext
			if v := h[j] - open; v > ev {
				ev = v
			}
			fv := f - ext
			if v := h[j-1] - open; v > fv {
				fv = v
			}
			hv := diag + int(row[b.Code[j-1]])
			if ev > hv {
				hv = ev
			}
			if fv > hv {
				hv = fv
			}
			if hv < 0 {
				hv = 0
			}
			diag = h[j]
			h[j], e[j], f = hv, ev, fv
			if hv > best {
				best = hv
			}
		}
	}
	return best, nil
}
