package cpu

import (
	"testing"

	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
	"bioperf5/internal/telemetry"
)

// runModel assembles and walks a program through a fresh core and
// returns the core for stall/trace inspection.
func runModel(t *testing.T, cfg Config, build func(a *isa.Asm), memory *mem.Memory) *Core {
	t.Helper()
	a := isa.NewAsm()
	build(a)
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if memory == nil {
		memory = mem.New()
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
	return core
}

func checkInvariant(t *testing.T, name string, m *Core) {
	t.Helper()
	ctr, st := m.Counters(), m.Stalls()
	if got, want := st.Total(), ctr.Cycles; got != want {
		t.Errorf("%s: stall stack sums to %d cycles, counters say %d\n%+v",
			name, got, want, st)
	}
}

func TestStallStackInvariantSyntheticPrograms(t *testing.T) {
	branchy, branchyMem := randomBranchLoop(11, 4000)
	programs := []struct {
		name  string
		cfg   Config
		build func(a *isa.Asm)
		mem   *mem.Memory
	}{
		{"independent-adds", POWER5Baseline(), independentAdds(16), nil},
		{"random-branches", POWER5Baseline(), branchy, branchyMem},
		{"multiply-chain", POWER5Baseline(), func(a *isa.Asm) {
			a.Label("main")
			a.Li(isa.R4, 500)
			a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
			a.Li(isa.R5, 3)
			a.Label("loop")
			a.Emit(isa.Instruction{Op: isa.OpMulld, RT: isa.R5, RA: isa.R5, RB: isa.R5})
			a.Emit(isa.Instruction{Op: isa.OpMulld, RT: isa.R5, RA: isa.R5, RB: isa.R5})
			a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
			a.Ret()
		}, nil},
	}
	for _, p := range programs {
		m := runModel(t, p.cfg, p.build, p.mem)
		checkInvariant(t, p.name, m)
	}
}

func TestStallStackAttributionIsPlausible(t *testing.T) {
	// Hostile random branches: the mispredict-flush bucket must be a
	// visible fraction of all cycles (the paper's central claim).
	build, memory := randomBranchLoop(7, 4000)
	m := runModel(t, POWER5Baseline(), build, memory)
	st := m.Stalls()
	if st.MispredictFlush == 0 {
		t.Error("random branches charged no mispredict-flush cycles")
	}
	if share := float64(st.MispredictFlush) / float64(st.Total()); share < 0.05 {
		t.Errorf("mispredict-flush share = %.3f, want a visible fraction", share)
	}

	// A tight always-taken loop without BTAC pays taken-branch bubbles.
	loop := func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 3000)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Label("loop")
		a.Emit(isa.Instruction{Op: isa.OpAddi, RT: isa.R5, RA: isa.R5, Imm: 1})
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}
	m = runModel(t, POWER5Baseline(), loop, nil)
	checkInvariant(t, "taken-loop", m)
	if m.Stalls().TakenBubble == 0 {
		t.Error("tight taken loop charged no taken-bubble cycles")
	}

	// A dependent multiply chain is FXU-bound.
	m = runModel(t, POWER5Baseline(), func(a *isa.Asm) {
		a.Label("main")
		a.Li(isa.R4, 500)
		a.Emit(isa.Instruction{Op: isa.OpMtctr, RA: isa.R4})
		a.Li(isa.R5, 3)
		a.Label("loop")
		for i := 0; i < 4; i++ {
			a.Emit(isa.Instruction{Op: isa.OpMulld, RT: isa.R5, RA: isa.R5, RB: isa.R5})
		}
		a.Branch(isa.Instruction{Op: isa.OpBdnz}, "loop")
		a.Ret()
	}, nil)
	checkInvariant(t, "fxu-chain", m)
	if m.Stalls().FXU == 0 {
		t.Error("dependent multiply chain charged no FXU cycles")
	}
}

func TestStallStackBucketsAndReport(t *testing.T) {
	m := runModel(t, POWER5Baseline(), independentAdds(4), nil)
	st := m.Stalls()
	var sum uint64
	for _, b := range st.Buckets() {
		sum += b.Cycles
	}
	if sum != st.Total() {
		t.Errorf("Buckets sum %d != Total %d", sum, st.Total())
	}
	r := m.Report()
	if r.Counters.Cycles != r.Stalls.Total() {
		t.Errorf("Report cycles %d != stall total %d", r.Counters.Cycles, r.Stalls.Total())
	}
	// Aggregation keeps the invariant.
	agg := r.Add(r)
	if agg.Stalls.Total() != 2*r.Stalls.Total() || agg.Counters.Cycles != 2*r.Counters.Cycles {
		t.Error("Report.Add broke the stall invariant")
	}
}

func TestPipelineTraceEvents(t *testing.T) {
	build, memory := randomBranchLoop(3, 300)
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
	core := newCore(t, POWER5Baseline())
	buf := telemetry.NewTraceBuffer(1 << 16)
	core.Observe(&Hooks{Trace: buf})
	if _, err := walkLive(mach, p, core, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ctr := core.Counters()
	events := buf.Events()
	if uint64(len(events)) != ctr.Instructions {
		t.Fatalf("trace has %d events for %d retired instructions", len(events), ctr.Instructions)
	}
	var flushes uint64
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Op == "" {
			t.Fatalf("event %d missing op", i)
		}
		if !(e.Fetch <= e.Dispatch && e.Dispatch < e.Issue && e.Issue < e.Complete+1) {
			t.Fatalf("event %d stage cycles out of order: %+v", i, e)
		}
		if e.Flush == BucketMispredictFlush {
			flushes++
		}
	}
	if flushes != ctr.DirMispredicts+ctr.TgtMispredicts {
		t.Errorf("trace shows %d flushes, counters %d",
			flushes, ctr.DirMispredicts+ctr.TgtMispredicts)
	}
	// Completion cycles in the trace are monotonic (in-order completion).
	for i := 1; i < len(events); i++ {
		if events[i].Complete < events[i-1].Complete {
			t.Fatalf("completion went backwards at event %d", i)
		}
	}
}

func TestAttachTelemetryAndPublish(t *testing.T) {
	build, memory := randomBranchLoop(5, 500)
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
	core := newCore(t, POWER5Baseline())
	reg := telemetry.NewRegistry()
	hooks := &Hooks{}
	hooks.Telemetry(reg)
	core.Observe(hooks)
	hier, err := walkLive(mach, p, core, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ctr := core.Counters()

	if got := reg.Histogram("cpu.load_to_use.cycles", nil).Count(); got != ctr.L1DAccesses-0 {
		// every access in this loop is a load
		if got == 0 {
			t.Error("no load-to-use latencies observed")
		}
	}
	if ctr.DirMispredicts > 0 {
		if top := reg.Labeled("cpu.branch.mispredict.pc").Top(1); len(top) == 0 {
			t.Error("no per-PC mispredict counts recorded")
		}
		if reg.Histogram("cpu.flush.cycles", nil).Count() == 0 {
			t.Error("no flush lengths observed")
		}
	}

	core.PublishTo(reg)
	hier.PublishTo(reg)
	snap := reg.Snapshot(5)
	if snap.Counters["cpu.Cycles"] != ctr.Cycles {
		t.Errorf("published cycles %d, counters %d", snap.Counters["cpu.Cycles"], ctr.Cycles)
	}
	if snap.Counters["cpu.Instructions"] != ctr.Instructions {
		t.Errorf("published instructions mismatch")
	}
	var stallSum uint64
	for _, b := range core.Stalls().Buckets() {
		stallSum += snap.Counters["cpu.stall."+b.Name]
	}
	if stallSum != ctr.Cycles {
		t.Errorf("published stall buckets sum to %d, want %d", stallSum, ctr.Cycles)
	}
	if _, ok := snap.Counters["cache.l1d.accesses"]; !ok {
		t.Error("cache hierarchy stats not published")
	}
}
