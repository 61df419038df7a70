// Package cpu implements the cycle-approximate POWER5-like core timing
// model.  It is trace-driven and has exactly one pipeline: Core.Consume
// charges cycles for one dynamic instruction the way the POWER5 would,
// given the instruction's predecoded static metadata (ProgMeta), its
// resolved branch outcome and the cache level its memory access
// resolved at.  Walk feeds the core live — package machine executes
// the program functionally, a cache.Hierarchy supplies the miss level —
// and the same walk appends those events to a trace being captured;
// kernels.ReplayTrace feeds the core from such a trace.  The hot loop
// allocates nothing on either feed.
//
// The model covers exactly the behaviours the paper measures and varies:
//
//   - an 8-wide fetch front end with a 2-cycle taken-branch bubble
//     (3 with SMT), removable by the score-based BTAC of Section IV-D;
//   - a tournament direction predictor whose mispredictions flush the
//     pipeline (the dominant cost for DP kernels, Table I / Figure 2);
//   - 5-wide dispatch and in-order 5-wide completion over a reorder
//     window, with completion-stall attribution by functional-unit
//     class (Table I's "stalls due FXU instructions");
//   - configurable numbers of fully pipelined FXUs (Figure 5), plus
//     LSUs and a BRU;
//   - an L1D/L2 data-cache hierarchy supplying load-to-use latencies
//     (Table I's L1D miss rate).
//
// Out-of-order issue is modelled with true data dependencies only
// (registers renamed perfectly, as on POWER5 within its window), using
// per-register ready cycles and earliest-free functional units.
package cpu

import (
	"fmt"

	"bioperf5/internal/branch"
	"bioperf5/internal/cache"
	"bioperf5/internal/machine"
	"bioperf5/internal/trace"
)

// Config selects the microarchitectural parameters.  The zero value is
// not usable; start from POWER5Baseline.
type Config struct {
	FetchWidth    int // instructions fetched per cycle (POWER5: 8)
	DispatchWidth int // instructions dispatched per cycle (POWER5: 5)
	CompleteWidth int // instructions completed per cycle (POWER5: 5)

	NumFXU int // fixed-point units (POWER5: 2; the paper tries 3 and 4)
	NumLSU int // load/store units (POWER5: 2)
	NumBRU int // branch units (POWER5: 1)
	NumCRU int // condition-register units (POWER5: 1)

	Window int // reorder window in instructions

	FrontendDepth      int // fetch-to-dispatch pipeline depth in cycles
	MispredictPenalty  int // flush/refetch penalty for a mispredicted branch
	TakenBranchPenalty int // fetch bubble for a taken branch (POWER5: 2, 3 with SMT)

	Predictor string // direction predictor name (see branch.New)

	UseBTAC bool              // add the Section IV-D BTAC
	BTAC    branch.BTACConfig // BTAC geometry when UseBTAC

	// Extensions gates decode support for the paper's new instructions.
	// With it false, a program containing max/isel faults, mirroring an
	// unmodified POWER5.
	Extensions bool
}

// POWER5Baseline returns the configuration matching the paper's in-lab
// 1.65 GHz POWER5 (one core, SMT off): 8-wide fetch, 5-wide
// dispatch/complete, 2 FXUs, 2 LSUs, 2-cycle taken-branch delay, no
// BTAC, no predicated instructions.
func POWER5Baseline() Config {
	return Config{
		FetchWidth:         8,
		DispatchWidth:      5,
		CompleteWidth:      5,
		NumFXU:             2,
		NumLSU:             2,
		NumBRU:             1,
		NumCRU:             1,
		Window:             120,
		FrontendDepth:      6,
		MispredictPenalty:  12,
		TakenBranchPenalty: 2,
		Predictor:          "tournament",
		BTAC:               branch.DefaultBTACConfig(),
	}
}

// Validate reports structurally impossible configurations.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.CompleteWidth <= 0:
		return fmt.Errorf("cpu: non-positive pipeline width")
	case c.NumFXU <= 0 || c.NumLSU <= 0 || c.NumBRU <= 0 || c.NumCRU <= 0:
		return fmt.Errorf("cpu: need at least one unit of each class")
	case c.Window <= 0:
		return fmt.Errorf("cpu: non-positive reorder window")
	case c.MispredictPenalty < 0 || c.TakenBranchPenalty < 0 || c.FrontendDepth < 0:
		return fmt.Errorf("cpu: negative latency")
	}
	return nil
}

// Counters is the hardware performance-counter set of the model; it is
// a superset of the events the paper reports.
type Counters struct {
	Cycles       uint64
	Instructions uint64

	FXUOps  uint64 // instructions executed on FXUs (includes cmp/max/isel)
	LSUOps  uint64
	BRUOps  uint64
	CmpOps  uint64 // compare instructions (isel path-length effect)
	MaxOps  uint64 // executed max instructions
	IselOps uint64 // executed isel instructions

	Branches       uint64 // all branch instructions
	CondBranches   uint64 // conditional branches
	TakenBranches  uint64 // branches that were taken
	DirMispredicts uint64 // direction mispredictions (conditional only)
	TgtMispredicts uint64 // target mispredictions (BTAC predicted wrong nia)

	BTACLookups  uint64 // taken branches that consulted the BTAC
	BTACPredicts uint64 // lookups confident enough to predict
	BTACCorrect  uint64 // predictions with the right target
	TakenBubbles uint64 // taken branches that paid the fetch bubble

	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64

	// Completion-stall attribution: cycles in which no instruction
	// completed, attributed to what the oldest instruction was doing.
	StallFXU      uint64 // oldest instruction executing in an FXU
	StallLSU      uint64 // oldest instruction waiting on a load/store
	StallBRU      uint64
	StallFrontend uint64 // completion starved by fetch (flush refill etc.)
}

// ratio returns n/d, and zero for an idle denominator.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// IPC returns committed instructions per cycle.
func (c Counters) IPC() float64 { return ratio(c.Instructions, c.Cycles) }

// L1DMissRate returns L1D misses per access.
func (c Counters) L1DMissRate() float64 { return ratio(c.L1DMisses, c.L1DAccesses) }

// BranchMispredictRate returns direction+target mispredictions per
// conditional branch, the rate plotted in Figure 2.
func (c Counters) BranchMispredictRate() float64 {
	return ratio(c.DirMispredicts+c.TgtMispredicts, c.CondBranches)
}

// DirectionShare returns the fraction of all mispredictions that are
// direction (not target) mispredictions — Table I's third column.
func (c Counters) DirectionShare() float64 {
	return ratio(c.DirMispredicts, c.DirMispredicts+c.TgtMispredicts)
}

// BranchFraction returns branches per instruction (Table II column 1).
func (c Counters) BranchFraction() float64 { return ratio(c.Branches, c.Instructions) }

// TakenFraction returns taken branches per branch (Table II column 3).
func (c Counters) TakenFraction() float64 { return ratio(c.TakenBranches, c.Branches) }

// BTACMispredictRate returns wrong-target predictions per BTAC
// prediction (the table under Figure 4).
func (c Counters) BTACMispredictRate() float64 {
	return ratio(c.BTACPredicts-c.BTACCorrect, c.BTACPredicts)
}

// StallFXUShare returns FXU completion-stall cycles as a fraction of all
// cycles (Table I's last column).
func (c Counters) StallFXUShare() float64 { return ratio(c.StallFXU, c.Cycles) }

// zip combines c and o counter by counter.  The one field list serves
// Add and Sub; TestCountersAddSubCoverEveryField keeps it complete.
func (c Counters) zip(o Counters, f func(a, b uint64) uint64) Counters {
	return Counters{
		Cycles:         f(c.Cycles, o.Cycles),
		Instructions:   f(c.Instructions, o.Instructions),
		FXUOps:         f(c.FXUOps, o.FXUOps),
		LSUOps:         f(c.LSUOps, o.LSUOps),
		BRUOps:         f(c.BRUOps, o.BRUOps),
		CmpOps:         f(c.CmpOps, o.CmpOps),
		MaxOps:         f(c.MaxOps, o.MaxOps),
		IselOps:        f(c.IselOps, o.IselOps),
		Branches:       f(c.Branches, o.Branches),
		CondBranches:   f(c.CondBranches, o.CondBranches),
		TakenBranches:  f(c.TakenBranches, o.TakenBranches),
		DirMispredicts: f(c.DirMispredicts, o.DirMispredicts),
		TgtMispredicts: f(c.TgtMispredicts, o.TgtMispredicts),
		BTACLookups:    f(c.BTACLookups, o.BTACLookups),
		BTACPredicts:   f(c.BTACPredicts, o.BTACPredicts),
		BTACCorrect:    f(c.BTACCorrect, o.BTACCorrect),
		TakenBubbles:   f(c.TakenBubbles, o.TakenBubbles),
		L1DAccesses:    f(c.L1DAccesses, o.L1DAccesses),
		L1DMisses:      f(c.L1DMisses, o.L1DMisses),
		L2Accesses:     f(c.L2Accesses, o.L2Accesses),
		L2Misses:       f(c.L2Misses, o.L2Misses),
		StallFXU:       f(c.StallFXU, o.StallFXU),
		StallLSU:       f(c.StallLSU, o.StallLSU),
		StallBRU:       f(c.StallBRU, o.StallBRU),
		StallFrontend:  f(c.StallFrontend, o.StallFrontend),
	}
}

// Add returns c + o field-wise; used to aggregate counters over
// multiple kernel invocations of one workload.
func (c Counters) Add(o Counters) Counters {
	return c.zip(o, func(a, b uint64) uint64 { return a + b })
}

// Sub returns c - o field-wise; used for interval statistics (Figure 2).
func (c Counters) Sub(o Counters) Counters {
	return c.zip(o, func(a, b uint64) uint64 { return a - b })
}

// BranchProfiler observes every resolved branch the core times, keyed
// by static PC.  The bprof package implements it to build the
// per-static-branch predictability profile; the interface lives here so
// cpu does not depend on the profiler.
type BranchProfiler interface {
	// OnCondBranch is called once per conditional branch with the
	// resolved direction and whether the live direction predictor
	// mispredicted it.
	OnCondBranch(pc int, taken, mispredicted bool)
	// OnBTAC is called once per BTAC lookup (taken branches with a BTAC
	// configured): predicted reports whether the BTAC was confident
	// enough to supply a target, wrong whether that target was wrong.
	OnBTAC(pc int, predicted, wrong bool)
}

// Walk is the one instruction walk: it steps mach — which must execute
// the program whose ProgMeta is metas — until the machine halts or
// limit instructions execute, and annotates each instruction once.  A
// memory op, as the predecoded metadata marks it, resolves its miss
// level in mem.  The annotated instruction goes to two optional sinks:
// core, when non-nil, consumes it as an Event (the coupled `-trace off`
// path), and keep, when non-nil, appends it as a trace Record (capture).
// Both sinks see the same miss levels because there is one hierarchy
// and one rule for consulting it.
func Walk(mach *machine.Machine, metas []InsMeta, mem *cache.Hierarchy, limit uint64, core *Core, keep *trace.Builder) error {
	for n := uint64(0); !mach.Halted(); n++ {
		if n >= limit {
			return machine.ErrLimit
		}
		d, err := mach.Step()
		if err != nil {
			return err
		}
		if uint(d.Index) >= uint(len(metas)) {
			return fmt.Errorf("cpu: instruction index %d outside the %d-instruction program being walked",
				d.Index, len(metas))
		}
		ev := Event{Meta: &metas[d.Index], PC: d.Index, Next: d.Next, Taken: d.Taken}
		memOp := ev.Meta.Load || ev.Meta.Store
		if memOp {
			_, level := mem.Access(d.EA)
			ev.MissLevel, ev.EA = uint8(level), d.EA
		}
		if keep != nil {
			keep.Add(trace.Record{PC: ev.PC, Taken: ev.Taken, HasEA: memOp, EA: ev.EA, MissLevel: ev.MissLevel})
		}
		if core != nil {
			if err := core.Consume(&ev); err != nil {
				return err
			}
		}
	}
	return nil
}
