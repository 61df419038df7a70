package align

import (
	"math/rand"
	"strings"
	"testing"

	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
)

var (
	b62 = score.BLOSUM62
	g11 = score.DefaultProteinGap
)

// rescore recomputes an alignment's score from its traceback,
// independently of the DP that produced it.
func rescore(t *testing.T, r *Result, mat *score.Matrix, gap score.Gap) int {
	t.Helper()
	ai, bi := r.StartA, r.StartB
	total := 0
	for _, op := range r.Ops {
		switch op.Kind {
		case OpMatch:
			for k := 0; k < op.N; k++ {
				total += mat.Score(r.A.Code[ai], r.B.Code[bi])
				ai++
				bi++
			}
		case OpDelete:
			total -= gap.Open + op.N*gap.Extend
			ai += op.N
		case OpInsert:
			total -= gap.Open + op.N*gap.Extend
			bi += op.N
		}
	}
	if ai != r.EndA || bi != r.EndB {
		t.Fatalf("traceback consumes to (%d,%d), header says (%d,%d)", ai, bi, r.EndA, r.EndB)
	}
	return total
}

func randSeqs(t *testing.T, seed int64, n, m int) (*seq.Seq, *seq.Seq) {
	t.Helper()
	g := seq.NewGenerator(seq.Protein, seed)
	a := g.Random("a", n)
	b := g.Mutate(a, "b", 0.6, 0.05)
	for b.Len() < m {
		b = g.Random("b", m)
	}
	return a, b.Sub(0, m)
}

func TestLocalIdenticalSequences(t *testing.T) {
	s := seq.MustSeq("s", "ACDEFGHIKLMNPQRSTVWY", seq.Protein)
	r, err := Local(s, s, b62, g11)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range s.Code {
		want += b62.Score(c, c)
	}
	if r.Score != want {
		t.Errorf("self-alignment score = %d, want %d", r.Score, want)
	}
	if len(r.Ops) != 1 || r.Ops[0].Kind != OpMatch || r.Ops[0].N != s.Len() {
		t.Errorf("self-alignment ops = %+v", r.Ops)
	}
	if r.Identity() != 1.0 {
		t.Errorf("identity = %f", r.Identity())
	}
}

func TestLocalEqualsRollingScore(t *testing.T) {
	var pairs [][2]*seq.Seq
	for seed := int64(0); seed < 12; seed++ {
		a, b := randSeqs(t, 100+seed, 50, 45)
		pairs = append(pairs, [2]*seq.Seq{a, b})
	}
	for i, p := range pairs {
		a, b := p[0], p[1]
		full, err := Local(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		rolling, err := LocalScore(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		if full.Score != rolling {
			t.Errorf("pair %d (%dx%d): full %d != rolling %d", i, a.Len(), b.Len(), full.Score, rolling)
		}
		if got := rescore(t, full, b62, g11); got != full.Score {
			t.Errorf("pair %d (%dx%d): local traceback rescores to %d, header %d\n%s",
				i, a.Len(), b.Len(), got, full.Score, full.Format(60))
		}
	}
}

// TestLocalRandomizedTracebackInvariant checks Local against LocalScore
// and its own rescored traceback on unrelated pairs of random shapes down
// to a single residue.
func TestLocalRandomizedTracebackInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := seq.NewGenerator(seq.Protein, 99)
	for trial := 0; trial < 20; trial++ {
		a := g.Random("a", 1+rng.Intn(30))
		b := g.Random("b", 1+rng.Intn(30))
		r, err := Local(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		rolling, err := LocalScore(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score != rolling {
			t.Errorf("trial %d (%dx%d): full %d != rolling %d", trial, a.Len(), b.Len(), r.Score, rolling)
		}
		if got := rescore(t, r, b62, g11); got != r.Score {
			t.Fatalf("trial %d: rescore %d != %d\n%s", trial, got, r.Score, r.Format(60))
		}
	}
}

func TestScoreSymmetry(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, b := randSeqs(t, 200+seed, 30, 33)
		sab, err := LocalScore(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		sba, err := LocalScore(b, a, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		if sab != sba {
			t.Errorf("seed %d: local score asymmetric: %d vs %d", seed, sab, sba)
		}
	}
}

func TestLocalNonNegativeAndAtLeastBestPair(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, b := randSeqs(t, 300+seed, 25, 40)
		l, err := LocalScore(a, b, b62, g11)
		if err != nil {
			t.Fatal(err)
		}
		if l < 0 {
			t.Errorf("local score %d < 0", l)
		}
		// One aligned residue pair is itself a local alignment.
		for _, x := range a.Code {
			for _, y := range b.Code {
				if s := b62.Score(x, y); l < s {
					t.Fatalf("seed %d: local %d < single-pair score %d", seed, l, s)
				}
			}
		}
	}
}

func TestLocalFindsPlantedMotif(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 77)
	motif := g.Random("motif", 25)
	left := g.Random("l", 40)
	right := g.Random("r", 40)
	host := &seq.Seq{ID: "host", Alpha: seq.Protein,
		Code: append(append(append([]byte{}, left.Code...), motif.Code...), right.Code...)}
	r, err := Local(motif, host, b62, g11)
	if err != nil {
		t.Fatal(err)
	}
	self := 0
	for _, c := range motif.Code {
		self += b62.Score(c, c)
	}
	if r.Score < self {
		t.Errorf("planted motif scored %d, self-score %d", r.Score, self)
	}
	if r.StartB != left.Len() || r.EndB != left.Len()+motif.Len() {
		t.Errorf("motif located at [%d,%d), planted at [%d,%d)",
			r.StartB, r.EndB, left.Len(), left.Len()+motif.Len())
	}
}

func TestXDropUngappedExtendsPlantedSegment(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 42)
	shared := g.Random("shared", 30)
	a := &seq.Seq{ID: "a", Alpha: seq.Protein,
		Code: append(append([]byte{}, g.Random("al", 20).Code...), shared.Code...)}
	a.Code = append(a.Code, g.Random("ar", 20).Code...)
	b := &seq.Seq{ID: "b", Alpha: seq.Protein,
		Code: append(append([]byte{}, g.Random("bl", 10).Code...), shared.Code...)}
	b.Code = append(b.Code, g.Random("br", 15).Code...)

	// Seed in the middle of the shared segment (word length 3).
	ai, bi := 20+12, 10+12
	sc, loA, hiA := XDropUngapped(a, b, ai, bi, 3, b62, 15)
	selfScore := 0
	for _, c := range shared.Code {
		selfScore += b62.Score(c, c)
	}
	if sc < selfScore {
		t.Errorf("extension score %d below shared self-score %d", sc, selfScore)
	}
	if loA > 20 || hiA < 20+30 {
		t.Errorf("extension [%d,%d) does not cover planted [20,50)", loA, hiA)
	}
}

// xdropReference computes, by unrestricted DP, the best score over all
// alignments of prefixes of a[si:] and b[sj:] anchored at the seed —
// what XDropGapped approximates with pruning.
func xdropReference(a, b *seq.Seq, si, sj int, mat *score.Matrix, gap score.Gap) int {
	n, m := a.Len()-si, b.Len()-sj
	open := gap.Open + gap.Extend
	ext := gap.Extend
	h := make([][]int, n+1)
	e := make([][]int, n+1)
	f := make([][]int, n+1)
	for i := range h {
		h[i] = make([]int, m+1)
		e[i] = make([]int, m+1)
		f[i] = make([]int, m+1)
	}
	best := 0
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				e[0][0], f[0][0] = negInf, negInf
				continue
			}
			ev, fv, hv := negInf, negInf, negInf
			if j > 0 {
				ev = e[i][j-1] - ext
				if v := h[i][j-1] - open; v > ev {
					ev = v
				}
			}
			if i > 0 {
				fv = f[i-1][j] - ext
				if v := h[i-1][j] - open; v > fv {
					fv = v
				}
			}
			if i > 0 && j > 0 {
				hv = h[i-1][j-1] + mat.Score(a.Code[si+i-1], b.Code[sj+j-1])
			}
			if ev > hv {
				hv = ev
			}
			if fv > hv {
				hv = fv
			}
			e[i][j], f[i][j], h[i][j] = ev, fv, hv
			if hv > best {
				best = hv
			}
		}
	}
	return best
}

func TestXDropGappedGenerousXMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := seq.NewGenerator(seq.Protein, 700+seed)
		a := g.Random("a", 30)
		b := g.Mutate(a, "b", 0.7, 0.05)
		got := XDropGapped(a, b, 0, 0, b62, g11, 10000)
		want := xdropReference(a, b, 0, 0, b62, g11)
		if got != want {
			t.Errorf("seed %d: xdrop %d != reference %d", seed, got, want)
		}
	}
}

func TestXDropGappedTightXIsLowerBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := seq.NewGenerator(seq.Protein, 800+seed)
		a := g.Random("a", 60)
		b := g.Mutate(a, "b", 0.6, 0.05)
		tight := XDropGapped(a, b, 0, 0, b62, g11, 12)
		ref := xdropReference(a, b, 0, 0, b62, g11)
		if tight > ref {
			t.Errorf("seed %d: pruned score %d exceeds reference %d", seed, tight, ref)
		}
		if tight < 0 {
			t.Errorf("seed %d: xdrop returned negative %d", seed, tight)
		}
	}
}

func TestXDropGappedEmptyRemainder(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 1)
	a := g.Random("a", 5)
	b := g.Random("b", 5)
	if got := XDropGapped(a, b, 5, 0, b62, g11, 20); got != 0 {
		t.Errorf("empty a remainder: %d, want 0", got)
	}
	if got := XDropGapped(a, b, 0, 5, b62, g11, 20); got != 0 {
		t.Errorf("empty b remainder: %d, want 0", got)
	}
}

func TestReversed(t *testing.T) {
	s := seq.MustSeq("s", "ACDEF", seq.Protein)
	r := Reversed(s)
	if r.Letters() != "FEDCA" {
		t.Errorf("reversed = %q", r.Letters())
	}
	if s.Letters() != "ACDEF" {
		t.Error("Reversed mutated its input")
	}
}

func TestFormatOutput(t *testing.T) {
	a := seq.MustSeq("qry", "ACDEFGHIK", seq.Protein)
	g := seq.NewGenerator(seq.Protein, 3)
	b := g.Mutate(a, "sbj", 0.8, 0.1)
	r, err := Local(a, b, b62, g11)
	if err != nil {
		t.Fatal(err)
	}
	text := r.Format(60)
	if !strings.Contains(text, "qry") || !strings.Contains(text, "score=") {
		t.Errorf("format output missing header:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 4 {
		t.Errorf("format produced %d lines", len(lines))
	}
}

func TestAlphabetMismatchRejected(t *testing.T) {
	p := seq.MustSeq("p", "ACDE", seq.Protein)
	d := seq.MustSeq("d", "ACGT", seq.DNA)
	if _, err := Local(p, d, b62, g11); err == nil {
		t.Error("alphabet mismatch accepted by Local")
	}
	if _, err := LocalScore(p, d, b62, g11); err == nil {
		t.Error("alphabet mismatch accepted by LocalScore")
	}
}

func TestMutatedPairScoresAboveRandomPair(t *testing.T) {
	// The statistical backbone of every experiment: homologs score
	// higher than unrelated sequences of the same length.
	g := seq.NewGenerator(seq.Protein, 55)
	a := g.Random("a", 150)
	hom := g.Mutate(a, "hom", 0.6, 0.02)
	unrel := g.Random("u", hom.Len())
	sHom, _ := LocalScore(a, hom, b62, g11)
	sUnrel, _ := LocalScore(a, unrel, b62, g11)
	if sHom <= sUnrel*2 {
		t.Errorf("homolog score %d not clearly above unrelated %d", sHom, sUnrel)
	}
}

func TestAlignedLengthAndRuns(t *testing.T) {
	r := &Result{Ops: []EditOp{{OpMatch, 5}, {OpInsert, 2}, {OpMatch, 3}}}
	if r.AlignedLength() != 10 {
		t.Errorf("aligned length = %d", r.AlignedLength())
	}
}

func TestRunLengthEncoding(t *testing.T) {
	ops := runLength([]OpKind{OpMatch, OpMatch, OpDelete, OpMatch, OpMatch, OpMatch})
	want := []EditOp{{OpMatch, 2}, {OpDelete, 1}, {OpMatch, 3}}
	if len(ops) != len(want) {
		t.Fatalf("runs = %+v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}
