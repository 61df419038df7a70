package cpu

import (
	"math/rand"
	"testing"

	"bioperf5/internal/cache"
	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
)

// newCore builds a core under cfg charging the POWER5 hierarchy's
// load-to-use latencies, the hierarchy walkLive resolves against.
func newCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	core, err := NewCore(cfg, cache.NewPOWER5Hierarchy().LevelLatencies())
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// walkLive walks mach, which executes p, through core against a fresh
// POWER5 hierarchy — the coupled path, nothing kept — and returns the
// hierarchy.
func walkLive(mach *machine.Machine, p *isa.Program, core *Core, limit uint64) (*cache.Hierarchy, error) {
	hier := cache.NewPOWER5Hierarchy()
	return hier, Walk(mach, ProgMeta(p), hier, limit, core, nil)
}

// buildAndRun assembles a program, executes it functionally through the
// timing model, and returns the counters.
func buildAndRun(t *testing.T, cfg Config, build func(a *isa.Asm), args ...uint64) Counters {
	t.Helper()
	a := isa.NewAsm()
	build(a)
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(p, mem.New())
	mach.Reset()
	if err := mach.SetPC("main"); err != nil {
		t.Fatal(err)
	}
	mach.SetReg(isa.SP, 0x7FFF0000)
	for i, v := range args {
		mach.SetReg(isa.R3+isa.Reg(i), v)
	}
	core := newCore(t, cfg)
	if _, err := walkLive(mach, p, core, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return core.Counters()
}

// independentAdds emits a loop whose body is n independent add chains,
// exposing ILP limited only by FXU count.
func independentAdds(n int) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 2000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Label("loop")
		for i := 0; i < n; i++ {
			r := isa.R5 + isa.Reg(i%8)
			a.Emit(isa.Instruction{Op: isa.OpAddi, RT: r, RA: isa.R0, Imm: int64(i)})
		}
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
}

func TestValidate(t *testing.T) {
	if err := POWER5Baseline().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := POWER5Baseline()
	bad.NumFXU = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero FXUs validated")
	}
	bad = POWER5Baseline()
	bad.Window = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero window validated")
	}
	if _, err := NewCore(Config{}, [3]int{}); err == nil {
		t.Error("NewCore accepted zero config")
	}
}

func TestStraightLineIPCIsFXUBound(t *testing.T) {
	cfg := POWER5Baseline()
	ctr := buildAndRun(t, cfg, independentAdds(16))
	ipc := ctr.IPC()
	// 16 independent adds + loop branch per iteration; 2 FXUs bound
	// throughput near 2 (branch runs on the BRU in parallel).
	if ipc < 1.6 || ipc > 2.3 {
		t.Errorf("independent-add IPC = %.2f, want about 2 (2 FXUs)", ipc)
	}
}

func TestMoreFXUsRaiseILPThroughput(t *testing.T) {
	base := POWER5Baseline()
	four := POWER5Baseline()
	four.NumFXU = 4
	ipc2 := buildAndRun(t, base, independentAdds(16)).IPC()
	ipc4 := buildAndRun(t, four, independentAdds(16)).IPC()
	if ipc4 < ipc2*1.5 {
		t.Errorf("4-FXU IPC %.2f not clearly above 2-FXU IPC %.2f", ipc4, ipc2)
	}
	if ipc4 > 4.2 {
		t.Errorf("4-FXU IPC %.2f exceeds theoretical bound", ipc4)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	cfg := POWER5Baseline()
	ctr := buildAndRun(t, cfg, func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 2000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li(isa.R5, 0)
		a.Label("loop")
		for i := 0; i < 16; i++ {
			a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1})
		}
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	})
	if ipc := ctr.IPC(); ipc < 0.8 || ipc > 1.2 {
		t.Errorf("dependent-chain IPC = %.2f, want about 1", ipc)
	}
}

func TestLongLatencyFXUStallsAttributed(t *testing.T) {
	cfg := POWER5Baseline()
	ctr := buildAndRun(t, cfg, func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 500)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li(isa.R5, 3)
		a.Label("loop")
		// Dependent multiply chain: 5-cycle latency each.
		for i := 0; i < 4; i++ {
			a.Emit(isa.Instruction{Op: isa.OpMulld, RT: isa.R5, RA: isa.R5, RB: isa.R5})
		}
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	})
	if ctr.StallFXU == 0 {
		t.Error("dependent multiply chain produced no FXU completion stalls")
	}
	if ctr.StallFXU < ctr.StallLSU || ctr.StallFXU < ctr.StallBRU {
		t.Errorf("stall attribution skewed: FXU=%d LSU=%d BRU=%d",
			ctr.StallFXU, ctr.StallLSU, ctr.StallBRU)
	}
}

// randomBranchLoop builds the DP-kernel pattern: a branch whose
// direction depends on random data, executed in a tight loop.
func randomBranchLoop(seed int64, iters int) (func(a *isa.Asm), *mem.Memory) {
	memory := mem.New()
	rng := rand.New(rand.NewSource(seed))
	base := uint64(0x10000)
	for i := 0; i < iters; i++ {
		memory.StoreByte(base+uint64(i), byte(rng.Intn(2)))
	}
	return func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, int64(iters))
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, int64(base))
		a.Li(isa.R6, 0) // index
		a.Li(isa.R7, 0) // count of ones
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLbzx, RT: isa.R8, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpCmpdi, CRF: isa.CR0, RA: isa.R8, Imm: 0})
		a.Branch(isa.Instruction{Op: isa.OpBc, CRF: isa.CR0, Bit: isa.CREQ, Want: true}, "skip")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R7, RA: isa.R7, Imm: 1})
		a.Label("skip")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 1})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Mr(isa.R3, isa.R7)
		a.Ret()
	}, memory
}

func runWithMemory(t *testing.T, cfg Config, build func(a *isa.Asm), memory *mem.Memory) Counters {
	t.Helper()
	a := isa.NewAsm()
	build(a)
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(p, memory)
	mach.Reset()
	if err := mach.SetPC("main"); err != nil {
		t.Fatal(err)
	}
	mach.SetReg(isa.SP, 0x7FFF0000)
	core := newCore(t, cfg)
	if _, err := walkLive(mach, p, core, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return core.Counters()
}

func TestValueDependentBranchesCrushIPC(t *testing.T) {
	build, memory := randomBranchLoop(7, 4000)
	ctr := runWithMemory(t, POWER5Baseline(), build, memory)
	if rate := ctr.BranchMispredictRate(); rate < 0.10 {
		t.Errorf("mispredict rate on random branches = %.3f, want >0.10", rate)
	}
	if share := ctr.DirectionShare(); share < 0.95 {
		t.Errorf("direction share = %.3f, want about 1.0 without BTAC", share)
	}
	if ipc := ctr.IPC(); ipc > 1.3 {
		t.Errorf("IPC with hostile branches = %.2f; paper expects it depressed", ipc)
	}
}

func TestMispredictPenaltyMatters(t *testing.T) {
	build, memory := randomBranchLoop(7, 4000)
	cheap := POWER5Baseline()
	cheap.MispredictPenalty = 0
	dear := POWER5Baseline()
	dear.MispredictPenalty = 24
	ipcCheap := runWithMemory(t, cheap, build, memory).IPC()
	build2, memory2 := randomBranchLoop(7, 4000)
	ipcDear := runWithMemory(t, dear, build2, memory2).IPC()
	if ipcCheap <= ipcDear {
		t.Errorf("IPC with penalty 0 (%.2f) not above penalty 24 (%.2f)", ipcCheap, ipcDear)
	}
}

func TestTakenBranchBubbleAndBTAC(t *testing.T) {
	// A tight loop: every bdnz is taken; without a BTAC each pays the
	// 2-cycle bubble, with the BTAC almost none do.
	loop := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 3000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 1})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	noBTAC := POWER5Baseline()
	withBTAC := POWER5Baseline()
	withBTAC.UseBTAC = true

	plain := buildAndRun(t, noBTAC, loop)
	btac := buildAndRun(t, withBTAC, loop)

	if plain.TakenBubbles < 2900 {
		t.Errorf("taken bubbles without BTAC = %d, want about 3000", plain.TakenBubbles)
	}
	if btac.TakenBubbles > plain.TakenBubbles/10 {
		t.Errorf("BTAC left %d bubbles (baseline %d)", btac.TakenBubbles, plain.TakenBubbles)
	}
	if btac.IPC() <= plain.IPC() {
		t.Errorf("BTAC IPC %.2f not above baseline %.2f", btac.IPC(), plain.IPC())
	}
	if btac.BTACCorrect == 0 || btac.BTACPredicts == 0 {
		t.Errorf("BTAC counters silent: %+v", btac)
	}
	if rate := btac.BTACMispredictRate(); rate > 0.05 {
		t.Errorf("BTAC mispredict rate %.3f on a steady loop", rate)
	}
}

func TestZeroTakenPenaltyMatchesBTACIdeal(t *testing.T) {
	loop := independentAdds(2)
	noPenalty := POWER5Baseline()
	noPenalty.TakenBranchPenalty = 0
	base := POWER5Baseline()
	free := buildAndRun(t, noPenalty, loop)
	paid := buildAndRun(t, base, loop)
	if free.Cycles >= paid.Cycles {
		t.Errorf("removing the taken penalty did not help: %d vs %d cycles",
			free.Cycles, paid.Cycles)
	}
}

func TestExtensionsGate(t *testing.T) {
	a := isa.NewAsm()
	a.Label("main")
	a.Emit(isa.Instruction{Op: isa.OpMax, RT: isa.R3, RA: isa.R3, RB: isa.R4})
	a.Ret()
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(p, mem.New())
	mach.Reset()
	if err := mach.SetPC("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := walkLive(mach, p, newCore(t, POWER5Baseline()), 1000); err == nil { // Extensions false
		t.Error("max executed on a core without ISA extensions")
	}

	cfg := POWER5Baseline()
	cfg.Extensions = true
	mach2 := machine.New(p, mem.New())
	mach2.Reset()
	if err := mach2.SetPC("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := walkLive(mach2, p, newCore(t, cfg), 1000); err != nil {
		t.Errorf("max rejected with extensions enabled: %v", err)
	}
}

func TestL1DMissesCounted(t *testing.T) {
	// Stream far beyond L1 capacity with 128-byte stride: every access
	// misses L1.
	memory := mem.New()
	build := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 4000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, 0x100000)
		a.Li(isa.R6, 0)
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLbzx, RT: isa.R7, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 128})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	ctr := runWithMemory(t, POWER5Baseline(), build, memory)
	if ctr.L1DAccesses < 4000 {
		t.Fatalf("L1D accesses = %d", ctr.L1DAccesses)
	}
	if rate := ctr.L1DMissRate(); rate < 0.9 {
		t.Errorf("streaming miss rate = %.2f, want about 1.0", rate)
	}
	// And a hot loop on one line misses almost never.
	build2 := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 4000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, 0x100000)
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLbz, RT: isa.R7, RA: isa.R5, Imm: 0})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	ctr2 := runWithMemory(t, POWER5Baseline(), build2, mem.New())
	if rate := ctr2.L1DMissRate(); rate > 0.01 {
		t.Errorf("hot-line miss rate = %.4f, want about 0", rate)
	}
}

func TestCacheMissesSlowLoads(t *testing.T) {
	stream := func(stride int64) func(a *isa.Asm) {
		return func(a *isa.Asm) {
			a.Label("main")
			a.Li(isa.R4, 4000)
			a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
			a.Li64(isa.R5, 0x100000)
			a.Li(isa.R6, 0)
			a.Label("loop")
			a.Emit(isa.Instruction{Op: isa.OpLbzx, RT: isa.R7, RA: isa.R5, RB: isa.R6})
			// Dependent use of the load forces latency exposure.
			a.Emit(isa.Instruction{Op: isa.OpAdd, RT: isa.R8, RA: isa.R8, RB: isa.R7})
			a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: stride})
			a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
			a.Ret()
		}
	}
	hot := runWithMemory(t, POWER5Baseline(), stream(0), mem.New())
	cold := runWithMemory(t, POWER5Baseline(), stream(1<<13), mem.New()) // page-stride: misses L1+L2
	if cold.Cycles <= hot.Cycles {
		t.Errorf("cache-missing loop (%d cycles) not slower than hot loop (%d)",
			cold.Cycles, hot.Cycles)
	}
}

func TestWindowLimitsRunahead(t *testing.T) {
	// A load missing to memory at the head plus a long independent tail:
	// a small window should be slower than a big one.
	build := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 200)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, 0x200000)
		a.Li(isa.R6, 0)
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLbzx, RT: isa.R7, RA: isa.R5, RB: isa.R6})
		for i := 0; i < 30; i++ {
			a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R8 + isa.Reg(i%4), RA: isa.R0, Imm: 1})
		}
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 1 << 13})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	small := POWER5Baseline()
	small.Window = 8
	big := POWER5Baseline()
	big.Window = 256
	cSmall := runWithMemory(t, small, build, mem.New())
	cBig := runWithMemory(t, big, build, mem.New())
	if cBig.Cycles >= cSmall.Cycles {
		t.Errorf("bigger window not faster: %d vs %d cycles", cBig.Cycles, cSmall.Cycles)
	}
}

func TestCountersSubAndRates(t *testing.T) {
	a := Counters{Cycles: 100, Instructions: 50, CondBranches: 10, DirMispredicts: 2,
		L1DAccesses: 20, L1DMisses: 1, Branches: 12, TakenBranches: 6}
	b := Counters{Cycles: 40, Instructions: 20, CondBranches: 4, DirMispredicts: 1,
		L1DAccesses: 8, L1DMisses: 1, Branches: 5, TakenBranches: 2}
	d := a.Sub(b)
	if d.Cycles != 60 || d.Instructions != 30 || d.CondBranches != 6 || d.DirMispredicts != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if ipc := d.IPC(); ipc != 0.5 {
		t.Errorf("IPC = %f", ipc)
	}
	if (Counters{}).IPC() != 0 || (Counters{}).L1DMissRate() != 0 ||
		(Counters{}).BranchMispredictRate() != 0 || (Counters{}).DirectionShare() != 0 ||
		(Counters{}).BTACMispredictRate() != 0 || (Counters{}).TakenFraction() != 0 ||
		(Counters{}).BranchFraction() != 0 || (Counters{}).StallFXUShare() != 0 {
		t.Error("zero counters produced non-zero rates")
	}
}

func TestPredicationBeatsBranchOnHostileData(t *testing.T) {
	// The paper's core claim in miniature: computing max(a,b) over
	// random data via branches loses to the max instruction.
	memory := mem.New()
	rng := rand.New(rand.NewSource(3))
	base := uint64(0x30000)
	const n = 4000
	for i := 0; i < n; i++ {
		memory.WriteInt(base+uint64(8*i), 8, int64(rng.Intn(1000)))
	}
	// Note: a *running* max over random data settles quickly (later
	// values rarely exceed it), so that branch would be predictable.
	// Comparing *adjacent pairs* stays 50/50 hostile, which is the DP
	// inner-loop situation the paper describes.
	branchyPair := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, n/2)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, int64(base))
		a.Li(isa.R6, 0)
		a.Li(isa.R7, 0) // sum of maxes
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R8, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 8})
		a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R9, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 8})
		a.Emit(isa.Instruction{Op: isa.OpCmpd, CRF: isa.CR0, RA: isa.R8, RB: isa.R9})
		a.Branch(isa.Instruction{Op: isa.OpBc, CRF: isa.CR0, Bit: isa.CRGT, Want: true}, "keep")
		a.Mr(isa.R8, isa.R9)
		a.Label("keep")
		a.Emit(isa.Instruction{Op: isa.OpAdd, RT: isa.R7, RA: isa.R7, RB: isa.R8})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Mr(isa.R3, isa.R7)
		a.Ret()
	}
	maxedPair := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, n/2)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li64(isa.R5, int64(base))
		a.Li(isa.R6, 0)
		a.Li(isa.R7, 0)
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R8, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 8})
		a.Emit(isa.Instruction{Op: isa.OpLdx, RT: isa.R9, RA: isa.R5, RB: isa.R6})
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R6, RA: isa.R6, Imm: 8})
		a.Emit(isa.Instruction{Op: isa.OpMax, RT: isa.R8, RA: isa.R8, RB: isa.R9})
		a.Emit(isa.Instruction{Op: isa.OpAdd, RT: isa.R7, RA: isa.R7, RB: isa.R8})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Mr(isa.R3, isa.R7)
		a.Ret()
	}
	cfg := POWER5Baseline()
	cfg.Extensions = true
	cBr := runWithMemory(t, cfg, branchyPair, memory)
	cMax := runWithMemory(t, cfg, maxedPair, memory)
	if cMax.Cycles >= cBr.Cycles {
		t.Errorf("max kernel (%d cycles) not faster than branchy kernel (%d cycles)",
			cMax.Cycles, cBr.Cycles)
	}
	if cBr.DirMispredicts < 500 {
		t.Errorf("branchy kernel mispredicts = %d; data not hostile enough", cBr.DirMispredicts)
	}
	if cMax.MaxOps == 0 {
		t.Error("max kernel executed no max instructions")
	}
}
