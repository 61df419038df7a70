// Package seq provides biological sequences: alphabets, FASTA output and
// the synthetic sequence generators that stand in for the BioPerf
// class-C input datasets (GenBank/Swiss-Prot extracts) which are not
// redistributable here.  Branch behaviour of the DP kernels depends on
// the statistics of residue matches, not on biological meaning, so
// sequences drawn from realistic residue frequencies with homologs
// derived by controlled mutation exercise the same code paths.
package seq

import (
	"fmt"
	"math/rand"
	"strings"
)

// Alphabet maps residue letters to dense codes.
type Alphabet struct {
	name    string
	letters string
	index   [256]int8 // -1 when not in the alphabet
}

// NewAlphabet builds an alphabet from its letter set.
func NewAlphabet(name, letters string) *Alphabet {
	a := &Alphabet{name: name, letters: letters}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(letters); i++ {
		a.index[letters[i]] = int8(i)
		lower := letters[i] | 0x20
		a.index[lower] = int8(i)
	}
	return a
}

// Protein is the 20-letter amino-acid alphabet in the residue order
// shared with package score's substitution matrices.
var Protein = NewAlphabet("protein", "ARNDCQEGHILKMFPSTWYV")

// DNA is the 4-letter nucleotide alphabet.
var DNA = NewAlphabet("dna", "ACGT")

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of letters.
func (a *Alphabet) Size() int { return len(a.letters) }

// Letter returns the letter for code c.
func (a *Alphabet) Letter(c byte) byte { return a.letters[c] }

// Code returns the dense code of letter l, or -1 if not in the alphabet.
func (a *Alphabet) Code(l byte) int8 { return a.index[l] }

// Seq is one named biological sequence stored as dense codes.
type Seq struct {
	ID    string
	Desc  string
	Code  []byte // dense alphabet codes, not letters
	Alpha *Alphabet
}

// NewSeq encodes letters into a sequence, rejecting unknown residues.
func NewSeq(id string, letters string, a *Alphabet) (*Seq, error) {
	code := make([]byte, 0, len(letters))
	for i := 0; i < len(letters); i++ {
		l := letters[i]
		if l == '\n' || l == '\r' || l == ' ' || l == '\t' {
			continue
		}
		c := a.Code(l)
		if c < 0 {
			return nil, fmt.Errorf("seq %s: residue %q not in %s alphabet", id, l, a.Name())
		}
		code = append(code, byte(c))
	}
	return &Seq{ID: id, Code: code, Alpha: a}, nil
}

// MustSeq is NewSeq for literals in tests and examples.
func MustSeq(id, letters string, a *Alphabet) *Seq {
	s, err := NewSeq(id, letters, a)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the sequence length.
func (s *Seq) Len() int { return len(s.Code) }

// Letters decodes the sequence back to residue letters.
func (s *Seq) Letters() string {
	var b strings.Builder
	b.Grow(len(s.Code))
	for _, c := range s.Code {
		b.WriteByte(s.Alpha.Letter(c))
	}
	return b.String()
}

// Sub returns the subsequence [lo, hi) sharing the underlying storage.
func (s *Seq) Sub(lo, hi int) *Seq {
	return &Seq{ID: s.ID, Desc: s.Desc, Code: s.Code[lo:hi], Alpha: s.Alpha}
}

// robinsonFreqs are the Robinson & Robinson (1991) amino-acid
// background frequencies in the Protein alphabet's residue order
// (A R N D C Q E G H I L K M F P S T W Y V), scaled to sum to 1.
var robinsonFreqs = []float64{
	0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377,
	0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120,
	0.05841, 0.01330, 0.03216, 0.06441,
}

// Generator produces synthetic sequences and homolog families with a
// deterministic seed.
type Generator struct {
	rng   *rand.Rand
	alpha *Alphabet
	cum   []float64 // cumulative residue distribution
}

// NewGenerator returns a generator over alphabet a.  Protein sequences
// use Robinson-Robinson frequencies; other alphabets are uniform.
func NewGenerator(a *Alphabet, seed int64) *Generator {
	g := &Generator{rng: rand.New(rand.NewSource(seed)), alpha: a}
	freqs := make([]float64, a.Size())
	if a == Protein {
		copy(freqs, robinsonFreqs)
	} else {
		for i := range freqs {
			freqs[i] = 1 / float64(a.Size())
		}
	}
	g.cum = make([]float64, len(freqs))
	sum := 0.0
	for i, f := range freqs {
		sum += f
		g.cum[i] = sum
	}
	g.cum[len(g.cum)-1] = 1.0
	return g
}

func (g *Generator) residue() byte {
	u := g.rng.Float64()
	for i, c := range g.cum {
		if u <= c {
			return byte(i)
		}
	}
	return byte(len(g.cum) - 1)
}

// Random returns a fresh random sequence of length n.
func (g *Generator) Random(id string, n int) *Seq {
	code := make([]byte, n)
	for i := range code {
		code[i] = g.residue()
	}
	return &Seq{ID: id, Code: code, Alpha: g.alpha}
}

// Mutate derives a homolog of s at approximately the given identity:
// each residue is substituted with probability 1-identity, and short
// indels are introduced at indelRate per residue (geometric length,
// mean 2).  This models the related query/subject pairs that make DP
// kernels' compare streams value-dependent.
func (g *Generator) Mutate(s *Seq, id string, identity, indelRate float64) *Seq {
	out := make([]byte, 0, s.Len()+8)
	for _, c := range s.Code {
		if g.rng.Float64() < indelRate {
			if g.rng.Intn(2) == 0 {
				// Insertion burst.
				for {
					out = append(out, g.residue())
					if g.rng.Float64() < 0.5 {
						break
					}
				}
			} else {
				// Deletion: skip this residue.
				continue
			}
		}
		if g.rng.Float64() < identity {
			out = append(out, c)
		} else {
			out = append(out, g.residue())
		}
	}
	if len(out) == 0 {
		out = append(out, g.residue())
	}
	return &Seq{ID: id, Code: out, Alpha: g.alpha}
}

// Family generates n homologous sequences around a random ancestor of
// the given length — the shape of a Pfam seed alignment's members or a
// ClustalW input set.
func (g *Generator) Family(prefix string, n, length int, identity float64) []*Seq {
	ancestor := g.Random(prefix+"_anc", length)
	out := make([]*Seq, n)
	for i := range out {
		out[i] = g.Mutate(ancestor, fmt.Sprintf("%s%02d", prefix, i), identity, 0.01)
	}
	return out
}

// Database generates a search database of nseq sequences with lengths
// uniform in [minLen, maxLen], optionally salting in mutated copies of
// query (planted homologs) so similarity searches have true positives.
func (g *Generator) Database(prefix string, nseq, minLen, maxLen int, query *Seq, planted int) []*Seq {
	out := make([]*Seq, 0, nseq)
	for i := 0; i < nseq; i++ {
		n := minLen
		if maxLen > minLen {
			n += g.rng.Intn(maxLen - minLen)
		}
		out = append(out, g.Random(fmt.Sprintf("%s%04d", prefix, i), n))
	}
	for i := 0; i < planted && query != nil; i++ {
		h := g.Mutate(query, fmt.Sprintf("%s_hom%02d", prefix, i), 0.6, 0.02)
		out[g.rng.Intn(len(out))] = h
	}
	return out
}
