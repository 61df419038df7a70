// Isasim shows the simulator stack standalone: hand-assemble a small
// PPC-subset program with a data-dependent branch, run it on the
// POWER5 timing model under several configurations, and print the
// hardware counters — the same instruments the paper reads.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"bioperf5/internal/cache"
	"bioperf5/internal/cpu"
	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
)

// buildProgram assembles: sum of max(x[i], y[i]) over n pairs, using a
// compare-and-branch max — the hostile pattern from the paper.
func buildProgram(useMax bool) *isa.Program {
	a := isa.NewAsm()
	a.Label("main") // r3 = x ptr, r4 = y ptr, r5 = n
	a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R5})
	a.Li(isa.R6, 0) // byte offset
	a.Li(isa.R7, 0) // sum
	a.Label("loop")
	a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R8, RA: isa.R3, RB: isa.R6})
	a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R9, RA: isa.R4, RB: isa.R6})
	if useMax {
		a.Emit(isa.Instruction{Op: isa.OpMax, RT: isa.R8, RA: isa.R8, RB: isa.R9})
	} else {
		a.Emit(isa.Instruction{Op: isa.OpCmpd, CRF: isa.CR0, RA: isa.R8, RB: isa.R9})
		a.Branch(isa.Instruction{Op: isa.OpBc, CRF: isa.CR0, Bit: isa.CRGT, Want: true}, "keep")
		a.Mr(isa.R8, isa.R9)
		a.Label("keep")
	}
	a.Emit(isa.Instruction{Op: isa.OpAdd, RT: isa.R7, RA: isa.R7, RB: isa.R8})
	a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 8})
	a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
	a.Mr(isa.R3, isa.R7)
	a.Ret()
	p, err := a.Finish()
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func run(w io.Writer, name string, prog *isa.Program, cfg cpu.Config) {
	const n = 20000
	m := mem.New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		m.WriteInt(0x10000+uint64(8*i), 8, rng.Int63n(1000))
		m.WriteInt(0x50000+uint64(8*i), 8, rng.Int63n(1000))
	}
	mach := machine.New(prog, m)
	mach.Reset()
	if err := mach.SetPC("main"); err != nil {
		log.Fatal(err)
	}
	mach.SetReg(isa.SP, 0x7FF0000)
	mach.SetReg(isa.R3, 0x10000)
	mach.SetReg(isa.R4, 0x50000)
	mach.SetReg(isa.R5, n)

	hier := cache.NewPOWER5Hierarchy()
	core, err := cpu.NewCore(cfg, hier.LevelLatencies())
	if err != nil {
		log.Fatal(err)
	}
	if err := cpu.Walk(mach, cpu.ProgMeta(prog), hier, 10_000_000, core, nil); err != nil {
		log.Fatal(err)
	}
	ctr := core.Counters()
	fmt.Fprintf(w, "%-26s %9d cycles  IPC %.2f  branches %6d  mispredicts %5d  taken-bubbles %6d\n",
		name, ctr.Cycles, ctr.IPC(), ctr.Branches, ctr.DirMispredicts, ctr.TakenBubbles)
}

// compare prints one counter line per configuration: the branchy loop
// on a stock POWER5 and with the BTAC, the max loop with the ISA
// extensions and with everything the paper adds.
func compare(w io.Writer, branchy, maxed *isa.Program) {
	base := cpu.POWER5Baseline()
	run(w, "branchy, stock POWER5", branchy, base)

	withBTAC := base
	withBTAC.UseBTAC = true
	run(w, "branchy + BTAC", branchy, withBTAC)

	ext := base
	ext.Extensions = true
	run(w, "max instruction", maxed, ext)

	all := withBTAC
	all.Extensions = true
	all.NumFXU = 4
	run(w, "max + BTAC + 4 FXUs", maxed, all)
}

func main() {
	fmt.Println("sum of max(x[i], y[i]) over 20k random pairs — the paper's pattern in miniature")
	fmt.Println()

	branchy := buildProgram(false)
	compare(os.Stdout, branchy, buildProgram(true))

	fmt.Println("\n(disassembly of the branchy loop)")
	fmt.Print(branchy.Disasm())
}
