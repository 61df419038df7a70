package cpu

import (
	"testing"

	"bioperf5/internal/isa"
)

// TestSMTTakenPenalty checks the paper's note that the taken-branch
// bubble grows from 2 to 3 cycles with SMT enabled.
func TestSMTTakenPenalty(t *testing.T) {
	loop := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 5000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	smtOff := POWER5Baseline()
	smtOn := POWER5Baseline()
	smtOn.TakenBranchPenalty = 3
	cOff := buildAndRun(t, smtOff, loop)
	cOn := buildAndRun(t, smtOn, loop)
	if cOn.Cycles <= cOff.Cycles {
		t.Errorf("SMT penalty 3 (%d cycles) not slower than 2 (%d)", cOn.Cycles, cOff.Cycles)
	}
	// Each taken branch costs one extra cycle: the difference is about
	// one cycle per iteration.
	diff := cOn.Cycles - cOff.Cycles
	if diff < 4500 || diff > 5500 {
		t.Errorf("SMT delta = %d cycles over 5000 taken branches", diff)
	}
}

// TestCompleteWidthLimits verifies the 5-wide completion cap: a core
// with completion width 1 cannot exceed IPC 1.
func TestCompleteWidthLimits(t *testing.T) {
	narrow := POWER5Baseline()
	narrow.CompleteWidth = 1
	ctr := buildAndRun(t, narrow, independentAdds(16))
	if ipc := ctr.IPC(); ipc > 1.01 {
		t.Errorf("IPC %.2f exceeds completion width 1", ipc)
	}
}

// TestDispatchWidthLimits caps throughput similarly.
func TestDispatchWidthLimits(t *testing.T) {
	narrow := POWER5Baseline()
	narrow.DispatchWidth = 2
	narrow.NumFXU = 4
	ctr := buildAndRun(t, narrow, independentAdds(16))
	if ipc := ctr.IPC(); ipc > 2.05 {
		t.Errorf("IPC %.2f exceeds dispatch width 2", ipc)
	}
}

// TestPredictorConfigSelection checks the predictor knob reaches the
// model: a static-not-taken predictor mispredicts every loop-back
// branch; the tournament predictor almost none.
func TestPredictorConfigSelection(t *testing.T) {
	loop := independentAdds(2)
	static := POWER5Baseline()
	static.Predictor = "static-not-taken"
	tour := POWER5Baseline()
	tour.Predictor = "tournament"
	cStatic := buildAndRun(t, static, loop)
	cTour := buildAndRun(t, tour, loop)
	if cStatic.DirMispredicts < 1900 {
		t.Errorf("static-not-taken mispredicted only %d of ~2000 loop branches",
			cStatic.DirMispredicts)
	}
	if cTour.DirMispredicts > 100 {
		t.Errorf("tournament mispredicted %d loop branches", cTour.DirMispredicts)
	}
	if cTour.Cycles >= cStatic.Cycles {
		t.Error("better prediction did not reduce cycles")
	}
}

// TestBTACCounterCoherence checks the BTAC counters' internal algebra.
func TestBTACCounterCoherence(t *testing.T) {
	cfg := POWER5Baseline()
	cfg.UseBTAC = true
	ctr := buildAndRun(t, cfg, independentAdds(4))
	if ctr.BTACPredicts > ctr.BTACLookups {
		t.Errorf("predicts %d > lookups %d", ctr.BTACPredicts, ctr.BTACLookups)
	}
	if ctr.BTACCorrect > ctr.BTACPredicts {
		t.Errorf("correct %d > predicts %d", ctr.BTACCorrect, ctr.BTACPredicts)
	}
	if ctr.BTACLookups == 0 {
		t.Error("BTAC never consulted despite taken branches")
	}
	// Bubbles + correct predictions cover all taken branches that were
	// correctly direction-predicted (approximately: mispredicted ones
	// take the flush path instead).
	if ctr.TakenBubbles+ctr.BTACCorrect > ctr.TakenBranches {
		t.Errorf("bubbles %d + correct %d exceed taken %d",
			ctr.TakenBubbles, ctr.BTACCorrect, ctr.TakenBranches)
	}
}

// TestCountersAdd checks the aggregation used by core.Simulate.
func TestCountersAdd(t *testing.T) {
	a := Counters{Cycles: 10, Instructions: 20, Branches: 3, StallFXU: 4,
		L1DAccesses: 5, BTACCorrect: 6}
	b := Counters{Cycles: 1, Instructions: 2, Branches: 3, StallFXU: 4,
		L1DAccesses: 5, BTACCorrect: 6}
	c := a.Add(b)
	if c.Cycles != 11 || c.Instructions != 22 || c.Branches != 6 ||
		c.StallFXU != 8 || c.L1DAccesses != 10 || c.BTACCorrect != 12 {
		t.Errorf("Add = %+v", c)
	}
	if d := c.Sub(b); d != a {
		t.Errorf("Add/Sub not inverse: %+v vs %+v", d, a)
	}
}

// TestFrontendStallAttribution: a mispredict-heavy loop must charge
// front-end stalls (completion starved during refill).
func TestFrontendStallAttribution(t *testing.T) {
	build, memory := randomBranchLoop(11, 3000)
	ctr := runWithMemory(t, POWER5Baseline(), build, memory)
	if ctr.StallFrontend == 0 {
		t.Error("mispredict-heavy loop produced no front-end stalls")
	}
	if ctr.StallFrontend < ctr.DirMispredicts*5 {
		t.Errorf("front-end stalls %d implausibly low for %d mispredicts",
			ctr.StallFrontend, ctr.DirMispredicts)
	}
}

// TestExtraLSUsHelpLoadBoundLoop mirrors the FXU experiment on the
// load/store side, exercising the unit-count plumbing generally.
func TestExtraLSUsHelpLoadBoundLoop(t *testing.T) {
	loads := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 2000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, 0x100000)
		a.Label("loop")
		for i := 0; i < 6; i++ {
			a.Emit(isa.Instruction{Op: isa.OpLd, RT: isa.R6 + isa.Reg(i), RA: isa.R5, Imm: int64(8 * i)})
		}
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	two := POWER5Baseline()
	four := POWER5Baseline()
	four.NumLSU = 4
	c2 := buildAndRun(t, two, loads)
	c4 := buildAndRun(t, four, loads)
	if c4.Cycles >= c2.Cycles {
		t.Errorf("4 LSUs (%d cycles) not faster than 2 (%d)", c4.Cycles, c2.Cycles)
	}
}
