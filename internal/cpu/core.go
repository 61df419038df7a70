package cpu

import (
	"fmt"
	"reflect"
	"strconv"

	"bioperf5/internal/branch"
	"bioperf5/internal/isa"
	"bioperf5/internal/telemetry"
)

// This file is the one timing core: the static (InsMeta, ProgMeta) and
// dynamic (Event) halves of what it consumes, the optional Hooks, and
// Core itself.  Its two feeds are Walk in cpu.go, live, and
// kernels.ReplayObserved, from a captured trace.

// InsMeta is the static per-instruction metadata the core needs, laid
// out for a flat lookup by PC.
type InsMeta struct {
	Uses   [3]isa.Reg // read registers, in Instruction.Uses order
	NUses  uint8
	Def    isa.Reg // written register (at most one in the ISA)
	HasDef bool

	Class  isa.Class
	Lat    uint64 // static execution latency (loads: overridden by miss level)
	Load   bool
	Store  bool
	Branch bool
	CondBr bool
	Ext    bool // instruction requires ISA extensions (max/isel)

	kind uint8 // op-counter bucket, see kind* below
	Op   isa.Op
}

// Op-counter buckets: a compare counts as CmpOps even when the op is
// also max/isel-adjacent, then max, then isel.
const (
	kindNone = iota
	kindCmp
	kindMax
	kindIsel
)

// ProgMeta precomputes the per-PC metadata for a compiled program.  It
// is pure and deterministic; kernels caches it alongside the program.
func ProgMeta(p *isa.Program) []InsMeta {
	metas := make([]InsMeta, len(p.Code))
	var regs []isa.Reg
	for i := range p.Code {
		ins := &p.Code[i]
		info := ins.Op.Info()
		m := &metas[i]
		m.Class = info.Class
		m.Lat = uint64(info.Latency)
		m.Load = info.Load
		m.Store = info.Store
		m.Branch = info.Branch
		m.CondBr = info.CondBr
		m.Ext = ins.Op == isa.OpMax || ins.Op == isa.OpIsel
		m.Op = ins.Op
		switch {
		case info.Compare:
			m.kind = kindCmp
		case ins.Op == isa.OpMax:
			m.kind = kindMax
		case ins.Op == isa.OpIsel:
			m.kind = kindIsel
		}
		regs = ins.Uses(regs[:0])
		m.NUses = uint8(copy(m.Uses[:], regs))
		regs = ins.Defs(regs[:0])
		if len(regs) > 0 {
			m.Def, m.HasDef = regs[0], true
		}
	}
	return metas
}

// Event is one dynamic instruction as the core consumes it.
type Event struct {
	Meta      *InsMeta
	PC        int
	Next      int
	Taken     bool
	MissLevel uint8  // memory ops: 0 L1 hit, 1 L2 hit, 2 memory
	EA        uint64 // memory ops: effective address; reported to a TraceBuffer, never timed
}

// Hooks are the optional observers of a running core; Core.Observe
// attaches them.  The core holds them behind one pointer, so with none
// attached it pays one nil check per instruction.  Observing never
// alters timing: the branch hooks fire after the predictors have been
// consulted and trained.
type Hooks struct {
	Trace    *telemetry.TraceBuffer // gets one lifecycle record per consumed instruction
	Branches BranchProfiler         // sees every conditional branch and BTAC lookup

	// Interval, with Every > 0, gets Counters() after every Every-th
	// consumed instruction (Figure 2's window); not after a partial tail.
	Every    uint64
	Interval func(Counters)

	// Streaming distributions, wired by Telemetry.
	histLoad     *telemetry.Histogram
	histFlush    *telemetry.Histogram
	mispredictPC *telemetry.LabeledCounter
}

// Telemetry wires the streaming distributions into reg: load-to-use
// latencies, misprediction flush lengths, and per-PC branch mispredict
// counts are observed live as instructions are consumed.  Snapshot-style
// counters are published separately via Core.PublishTo.
func (h *Hooks) Telemetry(reg *telemetry.Registry) {
	h.histLoad = reg.Histogram("cpu.load_to_use.cycles", nil)
	h.histFlush = reg.Histogram("cpu.flush.cycles", nil)
	h.mispredictPC = reg.Labeled("cpu.branch.mispredict.pc")
}

// Core is the timing model of one POWER5-like core.  All times are
// absolute cycle numbers.
type Core struct {
	cfg     Config
	pred    branch.DirectionPredictor
	btac    *branch.BTAC
	loadLat [3]uint64 // load-to-use latency per miss level
	obs     *Hooks

	ctr    Counters
	stalls [numBuckets]uint64

	fetchCycle   uint64 // cycle the next instruction can be fetched
	fetchedAt    uint64 // instructions fetched in fetchCycle
	fetchCause   bucket // why fetchCycle was last pushed back (bucketNone = streaming)
	dispCycle    uint64
	dispatchedAt uint64
	complCycle   uint64 // cycle of the most recent completion
	completedAt  uint64 // completions in complCycle

	regReady  [isa.NumRegs]uint64
	regWriter [isa.NumRegs]isa.Class // unit class of each register's last producer
	regMiss   [isa.NumRegs]uint8     // miss level of each register's producing load
	units     [4][]uint64            // next-free cycle per unit, indexed by isa.Class

	// Completion-group accounting for stall attribution.
	groupCompl uint64   // cycle the previous completion group retired
	groupFill  uint64   // instructions accumulated into the current group
	window     []uint64 // completion cycles, ring of size Window
	wpos       int
	wcount     int
}

// NewCore builds a core for cfg charging the given load-to-use latency
// per miss level (a live hierarchy's, or the ones a trace recorded).
func NewCore(cfg Config, loadLat [3]int) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg, pred: branch.New(cfg.Predictor), fetchCause: bucketNone}
	if cfg.UseBTAC {
		c.btac = branch.NewBTAC(cfg.BTAC)
	}
	c.units[isa.ClassFXU] = make([]uint64, cfg.NumFXU)
	c.units[isa.ClassLSU] = make([]uint64, cfg.NumLSU)
	c.units[isa.ClassBRU] = make([]uint64, cfg.NumBRU)
	c.units[isa.ClassCRU] = make([]uint64, cfg.NumCRU)
	c.window = make([]uint64, cfg.Window)
	c.fetchCycle = 1
	for i, l := range loadLat {
		c.loadLat[i] = uint64(l)
	}
	return c, nil
}

// Counters returns a snapshot of the accumulated counters with Cycles
// set to the current pipeline time.
func (c *Core) Counters() Counters {
	ctr := c.ctr
	ctr.Cycles = c.complCycle
	return ctr
}

// Stalls returns the CPI stall stack accumulated so far.  Its Total
// always equals Counters().Cycles: every cycle the completion point has
// advanced is attributed to exactly one bucket.
func (c *Core) Stalls() StallStack {
	s := &c.stalls
	return StallStack{
		Base:            s[bucketBase],
		MispredictFlush: s[bucketMispredictFlush],
		TakenBubble:     s[bucketTakenBubble],
		L1DMiss:         s[bucketL1DMiss],
		L2Miss:          s[bucketL2Miss],
		FXU:             s[bucketFXU],
		LSU:             s[bucketLSU],
		BRU:             s[bucketBRU],
		WindowFull:      s[bucketWindowFull],
		Completion:      s[bucketCompletion],
	}
}

// Report returns the counters and stall stack together.
func (c *Core) Report() Report {
	return Report{Counters: c.Counters(), Stalls: c.Stalls()}
}

// Observe attaches h to the core, replacing whatever was attached; nil
// detaches.
func (c *Core) Observe(h *Hooks) { c.obs = h }

// PublishTo mirrors the core's current state into reg: every Counters
// field (reflected, so new counters are picked up automatically), the
// stall-stack buckets, the headline derived rates and the BTAC's own
// statistics.
func (c *Core) PublishTo(reg *telemetry.Registry) {
	ctr := c.Counters()
	v := reflect.ValueOf(ctr)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		reg.Counter("cpu." + t.Field(i).Name).Set(v.Field(i).Uint())
	}
	reg.Gauge("cpu.rate.ipc").Set(ctr.IPC())
	reg.Gauge("cpu.rate.l1d_miss").Set(ctr.L1DMissRate())
	reg.Gauge("cpu.rate.branch_mispredict").Set(ctr.BranchMispredictRate())
	// Direction mispredicts attributed to the predictor that produced
	// them, labeled by canonical spec so every spelling of a predictor
	// aggregates into one row.
	spec := branch.CanonicalOrRaw(c.cfg.Predictor)
	lc := reg.Labeled("branch.pred.mispredicts")
	if have := lc.Value(spec); ctr.DirMispredicts > have {
		lc.Add(spec, ctr.DirMispredicts-have)
	}
	for b, cycles := range c.stalls {
		reg.Counter("cpu.stall." + bucketNames[b]).Set(cycles)
	}
	if c.btac != nil {
		c.btac.PublishTo(reg)
	}
}

// Consume advances the pipeline model by one dynamic instruction.
func (c *Core) Consume(ev *Event) error {
	meta := ev.Meta
	if meta.Ext && !c.cfg.Extensions {
		return fmt.Errorf("cpu: illegal instruction %s: ISA extensions disabled (unmodified POWER5)", meta.Op)
	}

	// ---- Fetch: width-limited, plus any pending front-end bubble.
	fetchC := c.fetchCycle
	if c.fetchedAt >= uint64(c.cfg.FetchWidth) {
		fetchC++
	}
	if fetchC > c.fetchCycle {
		c.fetchCycle = fetchC
		c.fetchedAt = 0
		// Advancing by fetch width means the front end is streaming
		// again; the last redirect no longer explains this cycle.
		c.fetchCause = bucketNone
	}
	fcause := c.fetchCause // why this instruction's fetch cycle is late
	c.fetchedAt++

	// ---- Dispatch: width-limited, in order, after the front-end depth,
	// and only when the reorder window has space.
	dispC := fetchC + uint64(c.cfg.FrontendDepth)
	if dispC < c.dispCycle {
		dispC = c.dispCycle
	}
	if dispC == c.dispCycle && c.dispatchedAt >= uint64(c.cfg.DispatchWidth) {
		dispC++
	}
	windowLimited := false
	if c.wcount >= len(c.window) {
		// Window full: wait for the oldest instruction to complete.
		if oldest := c.window[c.wpos]; dispC <= oldest {
			dispC = oldest + 1
			windowLimited = true
		}
	}
	if dispC > c.dispCycle {
		c.dispCycle = dispC
		c.dispatchedAt = 0
	}
	c.dispatchedAt++

	// ---- Issue: after dispatch, operands ready, and a unit free.
	readyC := dispC + 1
	blockerClass := isa.ClassFXU
	blockerMiss := uint8(0) // miss level of the blocking producer load
	for i := uint8(0); i < meta.NUses; i++ {
		reg := meta.Uses[i]
		if c.regReady[reg] > readyC {
			readyC = c.regReady[reg]
			blockerClass = c.regWriter[reg]
			blockerMiss = c.regMiss[reg]
		}
	}
	class := meta.Class
	units := c.units[class]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issueC := readyC
	if units[best] > issueC {
		issueC = units[best]
	}
	units[best] = issueC + 1 // fully pipelined units

	// The class whose delay dominates this instruction's issue: the
	// producer of its latest operand, or its own unit when the unit
	// itself was the constraint.
	stallClass := blockerClass
	if issueC > readyC {
		stallClass = class
	}

	// ---- Execute.  Stores charge the cache counters but retire from the
	// LSU in one cycle with miss level 0: the line fill still happened,
	// matching a store queue that drains off the critical path.
	lat := meta.Lat
	missLevel := uint8(0) // 0 = hit/not a load, 1 = L1D miss, 2 = missed L2 too
	if meta.Load || meta.Store {
		c.ctr.L1DAccesses++
		if ev.MissLevel >= 1 {
			c.ctr.L1DMisses++
			c.ctr.L2Accesses++
			if ev.MissLevel >= 2 {
				c.ctr.L2Misses++
			}
		}
		if meta.Load {
			missLevel = ev.MissLevel
			lat = c.loadLat[missLevel]
		}
	}
	doneC := issueC + lat
	if meta.HasDef {
		c.regReady[meta.Def] = doneC
		c.regWriter[meta.Def] = class
		c.regMiss[meta.Def] = missLevel
	}

	switch class {
	case isa.ClassFXU:
		c.ctr.FXUOps++
	case isa.ClassLSU:
		c.ctr.LSUOps++
	case isa.ClassBRU:
		c.ctr.BRUOps++
	}
	switch meta.kind {
	case kindCmp:
		c.ctr.CmpOps++
	case kindMax:
		c.ctr.MaxOps++
	case kindIsel:
		c.ctr.IselOps++
	}

	// ---- Branch resolution: redirect the front end.
	flush := bucketNone
	if meta.Branch {
		flush = c.branchTiming(ev, fetchC, doneC)
	}

	// ---- In-order completion, width-limited.
	complC := doneC
	if complC < c.complCycle {
		complC = c.complCycle
	}
	if complC == c.complCycle && c.completedAt >= uint64(c.cfg.CompleteWidth) {
		complC++
	}
	// CPI stall stack: when this instruction moves the completion point
	// forward, charge those cycles to its dominant constraint.  Every
	// advance of complCycle flows through here, so the buckets sum to
	// the final cycle count by construction.
	charged := bucketNone
	if complC > c.complCycle {
		charged = c.chargeStalls(complC-c.complCycle, c.complCycle,
			doneC, issueC, readyC, dispC, class, blockerClass, blockerMiss,
			missLevel, windowLimited, fcause)
	}
	// Completion-stall attribution at POWER5 group granularity: every
	// CompleteWidth instructions form a completion group, and the
	// cycles in which no group completed are charged once — to the
	// unit class that delayed the group's critical instruction
	// (Table I's "completion stalls due to FXU instructions"), or to
	// the front end when the group simply arrived late (flush refill,
	// fetch bubbles).
	c.groupFill++
	if gap := int64(complC) - int64(c.groupCompl) - 1; gap > 0 {
		stall := uint64(gap)
		switch {
		case doneC == complC && (issueC > dispC+1 || lat > 1):
			if issueC > dispC+1 {
				c.attributeStall(stallClass, stall)
			} else {
				c.attributeStall(class, stall) // long-latency execution
			}
		default:
			c.ctr.StallFrontend += stall
		}
		c.groupCompl = complC
		c.groupFill = 0
	} else if c.groupFill >= uint64(c.cfg.CompleteWidth) {
		c.groupCompl = complC
		c.groupFill = 0
	}
	if complC > c.complCycle {
		c.complCycle = complC
		c.completedAt = 0
	}
	c.completedAt++
	c.ctr.Instructions++

	// Reorder-window bookkeeping.
	if c.wcount >= len(c.window) {
		c.wpos = (c.wpos + 1) % len(c.window)
	} else {
		c.wcount++
	}
	idx := (c.wpos + c.wcount - 1) % len(c.window)
	c.window[idx] = complC

	if o := c.obs; o != nil {
		c.retired(o, ev, fetchC, dispC, issueC, complC, lat, flush, charged)
	}
	return nil
}

// chargeStalls attributes delta newly elapsed cycles (the completion
// point moving from oldCompl to oldCompl+delta) to one stall-stack
// bucket and returns it.  Priority order: an on-time completion means
// the machine retired at full width; otherwise the late instruction's
// own memory miss, then a busy unit, then a slow operand producer (with
// producer loads traced back to the cache level that missed), then a
// full reorder window, then the front-end redirect that delayed its
// fetch; anything left is base pipeline flow.
func (c *Core) chargeStalls(delta, oldCompl, doneC, issueC, readyC, dispC uint64,
	class, blocker isa.Class, blockerMiss, missLevel uint8,
	windowLimited bool, fcause bucket) bucket {
	b := bucketBase
	switch {
	case doneC <= oldCompl:
		b = bucketCompletion
	case missLevel == 2:
		b = bucketL2Miss
	case missLevel == 1:
		b = bucketL1DMiss
	case issueC > readyC:
		b = unitBucket(class)
	case readyC > dispC+1:
		switch blockerMiss {
		case 2:
			b = bucketL2Miss
		case 1:
			b = bucketL1DMiss
		default:
			b = unitBucket(blocker)
		}
	case windowLimited:
		b = bucketWindowFull
	case fcause != bucketNone:
		b = fcause
	}
	c.stalls[b] += delta
	return b
}

// unitBucket maps a functional-unit class to its stall-stack bucket
// (CRU work is counted with the FXUs, as the POWER5 counters do).
func unitBucket(class isa.Class) bucket {
	switch class {
	case isa.ClassLSU:
		return bucketLSU
	case isa.ClassBRU:
		return bucketBRU
	default:
		return bucketFXU
	}
}

func (c *Core) attributeStall(class isa.Class, n uint64) {
	switch class {
	case isa.ClassFXU, isa.ClassCRU:
		c.ctr.StallFXU += n
	case isa.ClassLSU:
		c.ctr.StallLSU += n
	case isa.ClassBRU:
		c.ctr.StallBRU += n
	}
}

// branchTiming charges front-end redirection costs for a resolved
// branch, trains the predictors, and returns the redirect the branch
// raised (bucketNone when fetch was not disturbed).
func (c *Core) branchTiming(ev *Event, fetchC, doneC uint64) bucket {
	c.ctr.Branches++
	o := c.obs

	mispredicted := false
	if ev.Meta.CondBr {
		c.ctr.CondBranches++
		predTaken := c.pred.Predict(ev.PC)
		c.pred.Update(ev.PC, ev.Taken)
		if predTaken != ev.Taken {
			c.ctr.DirMispredicts++
			mispredicted = true
		}
		if o != nil && o.Branches != nil {
			o.Branches.OnCondBranch(ev.PC, ev.Taken, mispredicted)
		}
	}

	if ev.Taken {
		c.ctr.TakenBranches++
	}

	switch {
	case mispredicted:
		// Direction mispredict: flush; fetch restarts after resolve.
		c.flush(ev.PC, doneC)
		if c.btac != nil && ev.Taken {
			c.btac.Update(ev.PC, ev.Next)
		}
		return bucketMispredictFlush
	case ev.Taken:
		// Correctly predicted (or unconditional) taken branch: the
		// POWER5 pays the 2-cycle next-fetch-address bubble unless the
		// BTAC supplies the target.
		bubble := uint64(c.cfg.TakenBranchPenalty)
		if c.btac != nil {
			c.ctr.BTACLookups++
			nia, predict := c.btac.Lookup(ev.PC)
			if o != nil && o.Branches != nil {
				o.Branches.OnBTAC(ev.PC, predict, predict && nia != ev.Next)
			}
			if predict {
				c.ctr.BTACPredicts++
				if nia == ev.Next {
					c.ctr.BTACCorrect++
					bubble = 0
				} else {
					// Wrong target: the fetch went down a wrong path
					// and is caught at branch execution.
					c.ctr.TgtMispredicts++
					c.btac.Update(ev.PC, ev.Next)
					c.flush(ev.PC, doneC)
					return bucketMispredictFlush
				}
			}
			c.btac.Update(ev.PC, ev.Next)
		}
		if bubble > 0 {
			c.ctr.TakenBubbles++
			c.redirect(fetchC+1+bubble, bucketTakenBubble)
			return bucketTakenBubble
		}
	}
	return bucketNone
}

// flush restarts fetch MispredictPenalty cycles after the mispredicted
// branch at pc resolves, feeding the per-PC mispredict counter and the
// flush-length histogram when telemetry is attached.
func (c *Core) flush(pc int, doneC uint64) {
	restart := doneC + uint64(c.cfg.MispredictPenalty)
	if o := c.obs; o != nil {
		if o.mispredictPC != nil {
			o.mispredictPC.Add(strconv.Itoa(pc), 1)
		}
		if o.histFlush != nil && restart > c.fetchCycle {
			o.histFlush.Observe(restart - c.fetchCycle)
		}
	}
	c.redirect(restart, bucketMispredictFlush)
}

// redirect stalls instruction fetch until cycle at, remembering why so
// the stall stack can attribute the cycles the delay later costs.
func (c *Core) redirect(at uint64, cause bucket) {
	if at > c.fetchCycle {
		c.fetchCycle = at
		c.fetchedAt = 0
		c.fetchCause = cause
	}
}

// retired feeds the per-instruction observers the instruction Consume
// just counted: the load-to-use histogram, the interval sink, and the
// pipeline trace, whose bucket names are only materialised here.  Cold,
// so last in the file: growing it moves none of the pipeline's code.
func (c *Core) retired(o *Hooks, ev *Event, fetchC, dispC, issueC, complC, lat uint64, flush, charged bucket) {
	meta := ev.Meta
	if meta.Load && o.histLoad != nil {
		o.histLoad.Observe(lat)
	}
	if o.Every != 0 && c.ctr.Instructions%o.Every == 0 {
		o.Interval(c.Counters())
	}
	if o.Trace == nil {
		return
	}
	te := telemetry.TraceEvent{
		Seq:      c.ctr.Instructions - 1,
		PC:       ev.PC,
		Op:       meta.Op.String(),
		Fetch:    fetchC,
		Dispatch: dispC,
		Issue:    issueC,
		Complete: complC,
		Flush:    bucketNames[flush],
		Stall:    bucketNames[charged],
	}
	if meta.Load || meta.Store {
		te.EA = ev.EA
		if meta.Load {
			te.MemLat = lat
		}
	}
	o.Trace.Append(te)
}
