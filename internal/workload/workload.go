// Package workload runs the four BioPerf applications end-to-end in
// pure Go under the instrumenting profiler, reproducing Figure 1's
// function-wise breakout.  Inputs are synthetic (seeded) stand-ins for
// the BioPerf class-C datasets, scaled down to seconds; see DESIGN.md
// for the substitution rationale.
package workload

import (
	"fmt"
	"time"

	"bioperf5/internal/bio/align"
	"bioperf5/internal/bio/blast"
	"bioperf5/internal/bio/clustal"
	"bioperf5/internal/bio/hmm"
	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
	"bioperf5/internal/perf"
)

// Result is one application run: the function profile and a human
// summary.
type Result struct {
	App     string
	Profile *perf.Profiler
	Summary string
}

// Apps returns the application names in the paper's order.
func Apps() []string { return []string{"Blast", "Clustalw", "Fasta", "Hmmer"} }

// Run executes one application at the given scale (1 = a fraction of a
// second) and returns its function profile.
func Run(app string, scale int, seed int64) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	switch app {
	case "Blast":
		return runBlast(scale, seed)
	case "Clustalw":
		return runClustalw(scale, seed)
	case "Fasta":
		return runFasta(scale, seed)
	case "Hmmer":
		return runHmmer(scale, seed)
	}
	return nil, fmt.Errorf("workload: unknown application %q", app)
}

// runBlast is blastp: one query against a protein database with planted
// homologs.  SEMI_G_ALIGN_EX (gapped extension) dominates, followed by
// word finding — Figure 1's Blast column.
func runBlast(scale int, seed int64) (*Result, error) {
	g := seq.NewGenerator(seq.Protein, seed)
	query := g.Random("query", 320)
	db := g.Database("db", 60*scale, 150, 500, query, 4*scale)

	p := perf.New()
	params := blast.DefaultParams()
	params.Phase = p.Start

	stopSetup := p.Start("BlastWordIndex")
	idx, err := blast.NewIndex(db, params)
	stopSetup()
	if err != nil {
		return nil, err
	}

	begin := time.Now()
	hits, err := blast.Search(query, idx, params)
	if err != nil {
		return nil, err
	}
	searchTotal := time.Since(begin)
	// Attribute the scan time outside the extension kernels to BLAST's
	// word-finder.
	inner := p.Of("SemiGappedAlignEx") + p.Of("UngappedExtend")
	if wf := searchTotal - inner; wf > 0 {
		p.Add("BlastWordFinder", wf, 1)
	}
	return &Result{
		App:     "Blast",
		Profile: p,
		Summary: fmt.Sprintf("blastp: %d subjects, %d hits", len(db), len(hits)),
	}, nil
}

// runFasta is ssearch: full Smith-Waterman of the query against every
// database sequence; dropgsw takes ~99% of the time (Section II).
func runFasta(scale int, seed int64) (*Result, error) {
	g := seq.NewGenerator(seq.Protein, seed)
	query := g.Random("query", 400)
	db := g.Database("lib", 30*scale, 200, 600, query, 3*scale)

	p := perf.New()
	gap := score.Gap{Open: 10, Extend: 2}
	best, bestID := -1, ""
	for _, subject := range db {
		stop := p.Start("dropgsw")
		sc, err := align.LocalScore(query, subject, score.BLOSUM50, gap)
		stop()
		if err != nil {
			return nil, err
		}
		stopSel := p.Start("selectbest")
		if sc > best {
			best, bestID = sc, subject.ID
		}
		stopSel()
	}
	return &Result{
		App:     "Fasta",
		Profile: p,
		Summary: fmt.Sprintf("ssearch: %d subjects, best %s score %d", len(db), bestID, best),
	}, nil
}

// runClustalw is the three-stage progressive aligner; forward_pass (the
// pairwise phase) takes more than half the time for realistic sequence
// counts because it runs n(n-1)/2 times.
func runClustalw(scale int, seed int64) (*Result, error) {
	g := seq.NewGenerator(seq.Protein, seed)
	n := 12 + 4*scale
	fam := g.Family("seq", n, 140, 0.7)

	p := perf.New()
	opt := clustal.DefaultOptions()

	stop := p.Start("forward_pass")
	dist, err := clustal.Distances(fam, opt.Matrix, opt.Gap)
	stop()
	if err != nil {
		return nil, err
	}
	stop = p.Start("guide_tree")
	tree, err := clustal.BuildGuideTree(dist, opt.Tree)
	stop()
	if err != nil {
		return nil, err
	}
	stop = p.Start("pdiff")
	msa := clustal.AlignWithTree(fam, tree, opt)
	stop()

	return &Result{
		App:     "Clustalw",
		Profile: p,
		Summary: fmt.Sprintf("clustalw: %d sequences, %d columns aligned",
			msa.NumSeqs(), msa.Columns()),
	}, nil
}

// runHmmer is hmmpfam: a query scanned against a database of profile
// HMMs; P7Viterbi dominates.
func runHmmer(scale int, seed int64) (*Result, error) {
	g := seq.NewGenerator(seq.Protein, seed)
	// Model building is input preparation (Pfam ships prebuilt), so it
	// happens before profiling starts.
	var models []*hmm.Plan7
	for i := 0; i < 4*scale; i++ {
		famName := fmt.Sprintf("fam%02d", i)
		fam := g.Family(famName, 5, 90, 0.85)
		m, err := hmm.BuildFromFamily(famName, fam)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	query := g.Random("query", 250)

	p := perf.New()
	bestBits, bestName := -1e18, ""
	for _, m := range models {
		stop := p.Start("P7Viterbi")
		r, err := hmm.Viterbi(query, m)
		stop()
		if err != nil {
			return nil, err
		}
		stopPost := p.Start("PostprocessSignificantHit")
		if r.Bits() > bestBits {
			bestBits, bestName = r.Bits(), m.Name
		}
		stopPost()
	}
	return &Result{
		App:     "Hmmer",
		Profile: p,
		Summary: fmt.Sprintf("hmmpfam: %d models, best %s at %.1f bits",
			len(models), bestName, bestBits),
	}, nil
}

// DominantFunction returns the hottest function name and its share.
func (r *Result) DominantFunction() (string, float64) {
	bd := r.Profile.Breakdown()
	if len(bd) == 0 {
		return "", 0
	}
	return bd[0].Name, bd[0].Share
}
