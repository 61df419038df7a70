// Quickstart: align two protein sequences with the library, then run
// the same Smith-Waterman computation through the POWER5 simulator on a
// stock core and on the paper's improved core (max instruction + BTAC +
// 4 FXUs) and compare.
package main

import (
	"fmt"
	"log"

	"bioperf5/internal/bio/align"
	"bioperf5/internal/bio/score"
	"bioperf5/internal/bio/seq"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

func main() {
	// 1. Pairwise alignment with the bio library.
	a := seq.MustSeq("sensor_A", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ", seq.Protein)
	b := seq.MustSeq("sensor_B", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ", seq.Protein)
	g := seq.NewGenerator(seq.Protein, 7)
	b = g.Mutate(b, "sensor_B", 0.7, 0.05) // derive a homolog

	res, err := align.Local(a, b, score.BLOSUM62, score.DefaultProteinGap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Smith-Waterman local alignment ===")
	fmt.Print(res.Format(60))

	// 2. The same kernel on the simulated POWER5.
	k, err := kernels.ByApp("Fasta")
	if err != nil {
		log.Fatal(err)
	}
	simulate := func(s core.Setup) cpu.Counters {
		resp, err := core.Simulate(core.Request{App: k.App, Variant: s.Variant, Seeds: []int64{1}, Scale: 1, CPU: s.CPU})
		if err != nil {
			log.Fatal(err)
		}
		return resp.Aggregate.Counters
	}
	base := simulate(core.Baseline())
	improved := simulate(core.Baseline().WithVariant(kernels.Combination).WithBTAC().WithFXUs(4))
	fmt.Println("\n=== dropgsw kernel on the simulated POWER5 ===")
	fmt.Printf("baseline:  %8d cycles  IPC %.2f  mispredicts %d\n",
		base.Cycles, base.IPC(), base.DirMispredicts)
	fmt.Printf("improved:  %8d cycles  IPC %.2f  mispredicts %d\n",
		improved.Cycles, improved.IPC(), improved.DirMispredicts)
	fmt.Printf("speedup:   %.2fx (the paper's max+BTAC+FXU combination)\n",
		float64(base.Cycles)/float64(improved.Cycles))
}
