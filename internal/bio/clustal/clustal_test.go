package clustal

import (
	"sort"
	"strings"
	"testing"

	"bioperf5/internal/bio/align"
	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
)

func TestForwardPassMatchesLocalScore(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 21)
	for trial := 0; trial < 10; trial++ {
		a := g.Random("a", 60)
		b := g.Mutate(a, "b", 0.6, 0.05)
		fp, err := ForwardPass(a, b, score.BLOSUM62, score.ClustalWGap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := align.LocalScore(a, b, score.BLOSUM62, score.ClustalWGap)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Score != want {
			t.Errorf("trial %d: forward_pass %d != local score %d", trial, fp.Score, want)
		}
		if fp.EndA < 1 || fp.EndA > a.Len() || fp.EndB < 1 || fp.EndB > b.Len() {
			t.Errorf("trial %d: end position (%d,%d) out of range", trial, fp.EndA, fp.EndB)
		}
	}
}

func TestForwardPassEndPositions(t *testing.T) {
	// Planted identical motif at a known location: the best cell must
	// be at the motif's end.
	g := seq.NewGenerator(seq.Protein, 31)
	motif := g.Random("m", 20)
	a := motif
	host := g.Random("h", 50)
	code := append(append(append([]byte{}, host.Code[:25]...), motif.Code...), host.Code[25:]...)
	b := &seq.Seq{ID: "b", Code: code, Alpha: seq.Protein}
	fp, err := ForwardPass(a, b, score.BLOSUM62, score.ClustalWGap)
	if err != nil {
		t.Fatal(err)
	}
	if fp.EndA != a.Len() || fp.EndB != 25+motif.Len() {
		t.Errorf("ends = (%d,%d), want (%d,%d)", fp.EndA, fp.EndB, a.Len(), 25+motif.Len())
	}
}

func TestDistancesProperties(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 41)
	fam := g.Family("f", 5, 80, 0.8)
	d, err := Distances(fam, score.BLOSUM62, score.ClustalWGap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("diagonal d[%d][%d] = %f", i, i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric d[%d][%d]", i, j)
			}
			if d[i][j] < 0 || d[i][j] > 1 {
				t.Errorf("d[%d][%d] = %f out of [0,1]", i, j, d[i][j])
			}
		}
	}
	// A sequence is closer to a family member than to an unrelated one.
	unrel := g.Random("u", 80)
	mix := append(append([]*seq.Seq{}, fam[0], fam[1]), unrel)
	d2, err := Distances(mix, score.BLOSUM62, score.ClustalWGap)
	if err != nil {
		t.Fatal(err)
	}
	if d2[0][1] >= d2[0][2] {
		t.Errorf("family distance %f not below unrelated distance %f", d2[0][1], d2[0][2])
	}
}

func TestUPGMAKnownTopology(t *testing.T) {
	// Distances: {0,1} are close, {2,3} are close, groups far apart.
	d := [][]float64{
		{0.0, 0.1, 0.8, 0.8},
		{0.1, 0.0, 0.8, 0.8},
		{0.8, 0.8, 0.0, 0.2},
		{0.8, 0.8, 0.2, 0.0},
	}
	tree, err := BuildGuideTree(d, UPGMA)
	if err != nil {
		t.Fatal(err)
	}
	if tree.IsLeaf() {
		t.Fatal("root is a leaf")
	}
	groups := [][]int{tree.Left.Leaves(nil), tree.Right.Leaves(nil)}
	for _, grp := range groups {
		sort.Ints(grp)
	}
	ok := (equalInts(groups[0], []int{0, 1}) && equalInts(groups[1], []int{2, 3})) ||
		(equalInts(groups[0], []int{2, 3}) && equalInts(groups[1], []int{0, 1}))
	if !ok {
		t.Errorf("UPGMA split = %v", groups)
	}
}

func TestNJKnownTopology(t *testing.T) {
	d := [][]float64{
		{0.0, 0.1, 0.9, 0.9},
		{0.1, 0.0, 0.9, 0.9},
		{0.9, 0.9, 0.0, 0.1},
		{0.9, 0.9, 0.1, 0.0},
	}
	tree, err := BuildGuideTree(d, NeighborJoining)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves(nil)
	sort.Ints(leaves)
	if !equalInts(leaves, []int{0, 1, 2, 3}) {
		t.Fatalf("NJ lost leaves: %v", leaves)
	}
	// 0 and 1 must be siblings somewhere in the tree.
	if !hasSiblingPair(tree, 0, 1) {
		t.Error("NJ did not join the closest pair 0,1")
	}
}

func hasSiblingPair(n *Node, a, b int) bool {
	if n.IsLeaf() {
		return false
	}
	if n.Left.IsLeaf() && n.Right.IsLeaf() {
		l, r := n.Left.Leaf, n.Right.Leaf
		if (l == a && r == b) || (l == b && r == a) {
			return true
		}
	}
	return hasSiblingPair(n.Left, a, b) || hasSiblingPair(n.Right, a, b)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildGuideTreeErrors(t *testing.T) {
	if _, err := BuildGuideTree(nil, UPGMA); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := BuildGuideTree([][]float64{{0, 1}, {1}}, UPGMA); err == nil {
		t.Error("ragged matrix accepted")
	}
	one, err := BuildGuideTree([][]float64{{0}}, UPGMA)
	if err != nil || !one.IsLeaf() {
		t.Errorf("singleton tree: %v %v", one, err)
	}
}

func TestAlignFamily(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 51)
	fam := g.Family("fam", 5, 60, 0.85)
	res, err := Align(fam, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	msa := res.MSA
	if msa.NumSeqs() != 5 {
		t.Fatalf("aligned %d sequences", msa.NumSeqs())
	}
	// All rows equal length.
	for i := range msa.Rows {
		if len(msa.Rows[i]) != msa.Columns() {
			t.Fatalf("row %d length %d != %d", i, len(msa.Rows[i]), msa.Columns())
		}
	}
	// Ungapping recovers the inputs (by id).
	byID := map[string]string{}
	for _, s := range fam {
		byID[s.ID] = s.Letters()
	}
	for i := range msa.Rows {
		got := msa.Ungapped(i)
		if byID[got.ID] != got.Letters() {
			t.Errorf("row %s does not ungap to its input", got.ID)
		}
	}
	// Homologous family at 85% ancestor identity should produce a
	// strongly conserved alignment.
	pairSum, pairs := 0.0, 0
	for i := 0; i < msa.NumSeqs(); i++ {
		for j := i + 1; j < msa.NumSeqs(); j++ {
			pairSum += msa.Identity(i, j)
			pairs++
		}
	}
	if avg := pairSum / float64(pairs); avg < 0.5 {
		t.Errorf("average pairwise identity %.2f; alignment looks wrong:\n%s",
			avg, msa.Format(60))
	}
}

func TestAlignTwoSequences(t *testing.T) {
	a := seq.MustSeq("a", "ACDEFGHIKLMNPQRS", seq.Protein)
	b := seq.MustSeq("b", "ACDEFGIKLMNPQRS", seq.Protein) // H deleted
	res, err := Align([]*seq.Seq{a, b}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MSA.Columns() != 16 {
		t.Errorf("columns = %d, want 16 (one gap)", res.MSA.Columns())
	}
	gaps := strings.Count(res.MSA.Row(1), "-")
	if gaps != 1 {
		t.Errorf("row b has %d gaps, want 1:\n%s", gaps, res.MSA.Format(60))
	}
}

func TestAlignSingleAndErrors(t *testing.T) {
	s := seq.MustSeq("only", "ACDEF", seq.Protein)
	res, err := Align([]*seq.Seq{s}, DefaultOptions())
	if err != nil || res.MSA.NumSeqs() != 1 || res.MSA.Row(0) != "ACDEF" {
		t.Errorf("singleton alignment broken: %v", err)
	}
	if _, err := Align(nil, DefaultOptions()); err == nil {
		t.Error("empty input accepted")
	}
	d := seq.MustSeq("dna", "ACGT", seq.DNA)
	if _, err := Align([]*seq.Seq{s, d}, DefaultOptions()); err == nil {
		t.Error("alphabet mismatch accepted")
	}
	empty := &seq.Seq{ID: "e", Alpha: seq.Protein}
	if _, err := Align([]*seq.Seq{s, empty}, DefaultOptions()); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestAlignNJMethodWorksToo(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 61)
	fam := g.Family("fam", 4, 50, 0.8)
	opt := DefaultOptions()
	opt.Tree = NeighborJoining
	res, err := Align(fam, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSA.NumSeqs() != 4 {
		t.Errorf("aligned %d sequences", res.MSA.NumSeqs())
	}
	for i := range res.MSA.Rows {
		if len(res.MSA.Rows[i]) != res.MSA.Columns() {
			t.Fatalf("ragged MSA")
		}
	}
}

func TestMSAFormatting(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 71)
	fam := g.Family("fmt", 3, 70, 0.9)
	res, err := Align(fam, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := res.MSA.Format(60)
	if !strings.Contains(text, "fmt00") {
		t.Errorf("format lacks ids:\n%s", text)
	}
	if leaves := res.Tree.Leaves(nil); len(leaves) != 3 {
		t.Errorf("guide tree leaves = %v, want the 3 rows", leaves)
	}
}
