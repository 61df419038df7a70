// Pairalign is the ssearch/blastp workload as a user would run it:
// a query searched against a protein database, reported with E-values,
// and the best hit shown as a full alignment.
package main

import (
	"fmt"
	"log"
	"os"

	"bioperf5/internal/bio/align"
	"bioperf5/internal/bio/blast"
	"bioperf5/internal/bio/seq"
)

func main() {
	g := seq.NewGenerator(seq.Protein, 1234)
	query := g.Random("Q9XYZ1", 240)
	db := g.Database("UP", 80, 120, 450, query, 4)

	fmt.Printf("query %s (%d aa) vs %d database sequences\n\n",
		query.ID, query.Len(), len(db))

	params := blast.DefaultParams()
	idx, err := blast.NewIndex(db, params)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := blast.Search(query, idx, params)
	if err != nil {
		log.Fatal(err)
	}
	if len(hits) == 0 {
		fmt.Println("no hits below the E-value cutoff")
		return
	}

	fmt.Printf("%-14s %8s %8s %12s\n", "subject", "score", "bits", "E-value")
	for _, h := range hits {
		fmt.Printf("%-14s %8d %8.1f %12.2g\n", h.Subject.ID, h.Score, h.Bits, h.EValue)
	}

	// Full Smith-Waterman alignment of the top hit.
	top := hits[0]
	res, err := align.Local(query, top.Subject, params.Matrix, params.Gap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbest alignment:")
	fmt.Print(res.Format(60))

	// The query as a FASTA file would carry it.
	fmt.Println("\nquery as FASTA:")
	if err := seq.WriteFASTA(os.Stdout, []*seq.Seq{query}); err != nil {
		log.Fatal(err)
	}
}
