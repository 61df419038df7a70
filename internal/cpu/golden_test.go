package cpu

import (
	"fmt"
	"testing"

	"bioperf5/internal/cache"
	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
	"bioperf5/internal/trace"
)

// Closed-form pipeline goldens: hand-written programs whose cycle count
// follows from the model's stated rules, so the expected value is
// written down rather than read back from the model.  Every program
// runs through both feeds of the core and must agree with the formula
// on each.
//
// All of them are straight-line code ending in blr, on the POWER5
// baseline.  Instruction 0 is fetched in cycle 1, dispatched
// FrontendDepth (6) cycles later, issued the cycle after, and completes
// one execution latency after that: cycle 9 for a one-cycle op.  That
// fill, less the one cycle the first instruction itself accounts for,
// is the constant 8 in every formula below; the closing blr never adds
// to it because it resolves before the work in front of it completes.
const pipelineFill = 8

// bothFeeds walks the assembled program once with both sinks — a live
// core, and a trace.Builder keeping every record — then replays the
// kept records through a second, bare core, requires the two reports
// to be identical, and returns the report.  regs preloads argument
// registers, which are ready at cycle 0.
func bothFeeds(t *testing.T, cfg Config, memory *mem.Memory, regs map[isa.Reg]uint64, build func(a *isa.Asm)) Report {
	t.Helper()
	a := isa.NewAsm()
	a.Label("main")
	build(a)
	a.Ret()
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	metas := ProgMeta(p)
	mach := machine.New(p, memory)
	mach.Reset()
	if err := mach.SetPC("main"); err != nil {
		t.Fatal(err)
	}
	for r, v := range regs {
		mach.SetReg(r, v)
	}

	hier := cache.NewPOWER5Hierarchy()
	liveCore := newCore(t, cfg)
	var b trace.Builder
	if err := Walk(mach, metas, hier, 1_000_000, liveCore, &b); err != nil {
		t.Fatal(err)
	}
	live := liveCore.Report()

	tr, err := b.Finish(trace.Meta{LoadLat: hier.LevelLatencies()})
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(cfg, tr.Meta.LoadLat)
	if err != nil {
		t.Fatal(err)
	}
	it := tr.Iter()
	for it.Next() {
		rec := it.Rec()
		ev := Event{Meta: &metas[rec.PC], PC: rec.PC, Next: rec.Next, Taken: rec.Taken,
			MissLevel: rec.MissLevel, EA: rec.EA}
		if err := core.Consume(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if replayed := core.Report(); replayed != live {
		t.Fatalf("feeds disagree\n live:     %+v\n replayed: %+v", live, replayed)
	}
	if live.Stalls.Total() != live.Counters.Cycles {
		t.Fatalf("stall stack sums to %d, cycles %d", live.Stalls.Total(), live.Counters.Cycles)
	}
	return live
}

// chain emits n copies of one instruction that reads and writes r5, a
// dependence chain one instruction wide.
func chain(n int, ins isa.Instruction) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		for i := 0; i < n; i++ {
			a.Emit(ins)
		}
	}
}

// TestGoldenDependentChain: a chain of N dependent one-cycle ops
// retires one per cycle, N cycles after the fill — and max and isel are
// such ops, exactly as an add is.
func TestGoldenDependentChain(t *testing.T) {
	ext := POWER5Baseline()
	ext.Extensions = true
	ops := []struct {
		name  string
		ins   isa.Instruction
		count func(Counters) uint64
	}{
		{"addi", isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1}, nil},
		{"max", isa.Instruction{Op: isa.OpMax, RT: isa.R5, RA: isa.R5, RB: isa.R6},
			func(c Counters) uint64 { return c.MaxOps }},
		{"isel", isa.Instruction{Op: isa.OpIsel, RT: isa.R5, RA: isa.R5, RB: isa.R6, CRF: isa.CR0, Bit: isa.CRGT},
			func(c Counters) uint64 { return c.IselOps }},
	}
	for _, op := range ops {
		for _, n := range []int{1, 7, 100, 1000} {
			rep := bothFeeds(t, ext, mem.New(), nil, chain(n, op.ins))
			if want := uint64(n + pipelineFill); rep.Counters.Cycles != want {
				t.Errorf("%s chain of %d: %d cycles, want %d", op.name, n, rep.Counters.Cycles, want)
			}
			if rep.Counters.FXUOps != uint64(n) {
				t.Errorf("%s chain of %d: %d FXU ops", op.name, n, rep.Counters.FXUOps)
			}
			if op.count != nil && op.count(rep.Counters) != uint64(n) {
				t.Errorf("%s chain of %d: op counter %d", op.name, n, op.count(rep.Counters))
			}
		}
	}
}

// TestGoldenIndependentAddsSaturateFXUs: N independent adds arrive
// five per cycle and leave NumFXU per cycle, so with fewer FXUs than
// dispatch slots they take ceil(N/NumFXU) cycles.
func TestGoldenIndependentAddsSaturateFXUs(t *testing.T) {
	for _, fxus := range []int{2, 3, 4} {
		for _, n := range []int{12, 120, 601} {
			cfg := POWER5Baseline()
			cfg.NumFXU = fxus
			rep := bothFeeds(t, cfg, mem.New(), nil, func(a *isa.Asm) {
				for i := 0; i < n; i++ {
					a.Li(isa.R5+isa.Reg(i%8), int64(i))
				}
			})
			if want := uint64((n+fxus-1)/fxus + pipelineFill); rep.Counters.Cycles != want {
				t.Errorf("%d adds on %d FXUs: %d cycles, want %d", n, fxus, rep.Counters.Cycles, want)
			}
		}
	}
}

// TestGoldenTakenBranchPenalty: K unconditional branches, each to the
// instruction after it.  The one BRU resolves one per cycle; each also
// holds the next fetch back by exactly TakenBranchPenalty cycles, so
// the closing blr — branch K+1 — completes at fill + (K+1) + K*penalty.
func TestGoldenTakenBranchPenalty(t *testing.T) {
	const k = 40
	for _, penalty := range []int{0, 1, 2, 3} {
		cfg := POWER5Baseline()
		cfg.TakenBranchPenalty = penalty
		rep := bothFeeds(t, cfg, mem.New(), nil, func(a *isa.Asm) {
			for i := 0; i < k; i++ {
				next := fmt.Sprintf("l%d", i)
				a.Branch(isa.Instruction{Op: isa.OpB}, next)
				a.Label(next)
			}
		})
		if want := uint64(pipelineFill + k + 1 + k*penalty); rep.Counters.Cycles != want {
			t.Errorf("penalty %d: %d cycles, want %d", penalty, rep.Counters.Cycles, want)
		}
		wantBubbles := uint64(k + 1)
		if penalty == 0 {
			wantBubbles = 0
		}
		if rep.Counters.TakenBubbles != wantBubbles || rep.Counters.DirMispredicts != 0 {
			t.Errorf("penalty %d: %d bubbles (want %d), %d mispredicts",
				penalty, rep.Counters.TakenBubbles, wantBubbles, rep.Counters.DirMispredicts)
		}
	}
}

// TestGoldenBTACRemovesTakenPenalty: a counted loop of {addi; bdnz} is
// fetch-bound at 1+penalty cycles per iteration while the bubble is
// paid and chain-bound at one cycle once the BTAC supplies the target,
// so every correct BTAC prediction saves exactly TakenBranchPenalty
// cycles — and the BTAC predicts every taken bdnz after the two it
// needs to install the entry and raise its score to the threshold.
func TestGoldenBTACRemovesTakenPenalty(t *testing.T) {
	const iters = 200
	loop := func(a *isa.Asm) {
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R3})
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
	}
	regs := map[isa.Reg]uint64{isa.R3: iters}
	for _, penalty := range []int{2, 3} {
		plain := POWER5Baseline()
		plain.TakenBranchPenalty = penalty
		withBTAC := plain
		withBTAC.UseBTAC = true
		off := bothFeeds(t, plain, mem.New(), regs, loop).Counters
		on := bothFeeds(t, withBTAC, mem.New(), regs, loop).Counters
		if on.DirMispredicts != off.DirMispredicts {
			t.Fatalf("BTAC changed direction mispredicts: %d vs %d", on.DirMispredicts, off.DirMispredicts)
		}
		if on.BTACCorrect == 0 || on.TgtMispredicts != 0 {
			t.Fatalf("BTAC on a steady loop: %d correct, %d wrong targets", on.BTACCorrect, on.TgtMispredicts)
		}
		if saved, want := off.Cycles-on.Cycles, uint64(penalty)*on.BTACCorrect; saved != want {
			t.Errorf("penalty %d: BTAC saved %d cycles over %d correct predictions, want %d",
				penalty, saved, on.BTACCorrect, want)
		}
		if on.BTACCorrect+on.TakenBubbles != on.BTACLookups || on.TakenBubbles != 2 {
			t.Errorf("penalty %d: %d lookups = %d correct + %d bubbles, want 2 bubbles",
				penalty, on.BTACLookups, on.BTACCorrect, on.TakenBubbles)
		}
	}
}

// TestGoldenPointerChase: N loads, each of the address the previous one
// returned, expose the full load-to-use latency of every access, so the
// run takes fill + the sum of the latencies of the levels the accesses
// resolve at.  The rings are lines 8 KB apart — one L1D set (64 sets of
// 128 B lines), distinct L2 sets — walked for several rounds: the first
// round misses everything; after it a ring no larger than the L1D's 4
// ways hits L1, and a larger one thrashes its set under LRU and hits L2.
func TestGoldenPointerChase(t *testing.T) {
	const (
		base   = uint64(0x100000)
		stride = uint64(8 << 10)
		latL1  = 2
		latL2  = 13
		latMem = 230
	)
	for _, c := range []struct {
		name          string
		lines, rounds int
		l1, l2, mem   uint64 // accesses resolving at each level
	}{
		{"self-loop stays in L1", 1, 12, 11, 0, 1},
		{"four lines fit the L1 set", 4, 3, 8, 0, 4},
		{"five lines thrash L1, hit L2", 5, 3, 0, 10, 5},
		{"every line cold", 12, 1, 0, 0, 12},
	} {
		memory := mem.New()
		for i := 0; i < c.lines; i++ {
			memory.WriteInt(base+uint64(i)*stride, 8, int64(base+uint64((i+1)%c.lines)*stride))
		}
		n := c.lines * c.rounds
		rep := bothFeeds(t, POWER5Baseline(), memory, map[isa.Reg]uint64{isa.R3: base},
			chain(n, isa.Instruction{Op: isa.OpLd, RT: isa.R3, RA: isa.R3}))
		ctr := rep.Counters
		if want := pipelineFill + latL1*c.l1 + latL2*c.l2 + latMem*c.mem; ctr.Cycles != want {
			t.Errorf("%s: %d cycles, want %d", c.name, ctr.Cycles, want)
		}
		if ctr.L1DAccesses != uint64(n) || ctr.L1DMisses != c.l2+c.mem || ctr.L2Misses != c.mem {
			t.Errorf("%s: %d accesses, %d L1D misses, %d L2 misses; want %d, %d, %d",
				c.name, ctr.L1DAccesses, ctr.L1DMisses, ctr.L2Misses, n, c.l2+c.mem, c.mem)
		}
	}
}
