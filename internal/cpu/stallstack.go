package cpu

// StallStack is the CPI stall stack of the timing model: every cycle
// of a run is attributed to exactly one bucket, so the buckets always
// sum to Counters.Cycles (enforced by TestStallStackInvariant).  It is
// the top-down companion to the flat Counters — where Table I reports
// "% completion stalls due FXU instructions", the stack says where
// *all* the cycles went.
//
// Attribution is single-cause: when the completion point advances by N
// cycles, those N cycles are charged to the dominant constraint of the
// instruction that moved it (memory level > structural unit > operand
// producer > window > front-end redirect > base).  DESIGN.md maps each
// bucket onto the paper's Table I rows.
type StallStack struct {
	// Base covers cycles in which the pipeline streamed normally:
	// startup fill, dispatch-bandwidth-limited flow and straight-through
	// single-cycle execution.
	Base uint64 `json:"base"`
	// MispredictFlush covers cycles lost refilling after a branch
	// direction or BTAC target mispredict flush.
	MispredictFlush uint64 `json:"mispredict_flush"`
	// TakenBubble covers the POWER5's taken-branch fetch bubbles
	// (removed by the Section IV-D BTAC).
	TakenBubble uint64 `json:"taken_bubble"`
	// L1DMiss covers load latency satisfied from L2 (L1D miss, L2 hit).
	L1DMiss uint64 `json:"l1d_miss"`
	// L2Miss covers load latency paid to memory (missed both levels).
	L2Miss uint64 `json:"l2_miss"`
	// FXU/LSU/BRU cover cycles in which completion waited on that unit
	// class — either structurally (all units busy) or for an operand
	// produced by it (Table I's "stalls due FXU instructions").
	FXU uint64 `json:"fxu"`
	LSU uint64 `json:"lsu"`
	BRU uint64 `json:"bru"`
	// WindowFull covers dispatch stalled on a full reorder window.
	WindowFull uint64 `json:"window_full"`
	// Completion covers cycles advanced purely by the in-order
	// completion-width limit (the group retired at full width).
	Completion uint64 `json:"completion"`
}

// Total returns the sum of all buckets; it equals Counters.Cycles for
// the model that produced the stack.
func (s StallStack) Total() uint64 {
	return s.Base + s.MispredictFlush + s.TakenBubble + s.L1DMiss + s.L2Miss +
		s.FXU + s.LSU + s.BRU + s.WindowFull + s.Completion
}

// Add returns s + o bucket-wise, for aggregating multiple invocations.
func (s StallStack) Add(o StallStack) StallStack {
	return StallStack{
		Base:            s.Base + o.Base,
		MispredictFlush: s.MispredictFlush + o.MispredictFlush,
		TakenBubble:     s.TakenBubble + o.TakenBubble,
		L1DMiss:         s.L1DMiss + o.L1DMiss,
		L2Miss:          s.L2Miss + o.L2Miss,
		FXU:             s.FXU + o.FXU,
		LSU:             s.LSU + o.LSU,
		BRU:             s.BRU + o.BRU,
		WindowFull:      s.WindowFull + o.WindowFull,
		Completion:      s.Completion + o.Completion,
	}
}

// BucketShare is one named bucket with its fraction of total cycles.
type BucketShare struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// Buckets returns the stack as named shares in fixed order (the order
// the paper discusses the costs: useful work first, then branches,
// memory, units, and machine limits).
func (s StallStack) Buckets() []BucketShare {
	total := s.Total()
	cycles := [numBuckets]uint64{s.Base, s.MispredictFlush, s.TakenBubble, s.L1DMiss,
		s.L2Miss, s.FXU, s.LSU, s.BRU, s.WindowFull, s.Completion}
	out := make([]BucketShare, numBuckets)
	for i, v := range cycles {
		out[i] = BucketShare{Name: bucketNames[i], Cycles: v}
		if total > 0 {
			out[i].Share = float64(v) / float64(total)
		}
	}
	return out
}

// bucket indexes the stall stack inside the core's hot loop, in the
// order Buckets reports; names are looked up only when something is
// rendered.  bucketNone means "no bucket": nothing charged, or fetch
// not redirected.
type bucket uint8

const (
	bucketBase bucket = iota
	bucketMispredictFlush
	bucketTakenBubble
	bucketL1DMiss
	bucketL2Miss
	bucketFXU
	bucketLSU
	bucketBRU
	bucketWindowFull
	bucketCompletion
	numBuckets
	bucketNone = numBuckets
)

// Bucket names as they appear in trace events, JSON reports and the
// telemetry registry.
const (
	BucketBase            = "base"
	BucketMispredictFlush = "mispredict_flush"
	BucketTakenBubble     = "taken_bubble"
	BucketL1DMiss         = "l1d_miss"
	BucketL2Miss          = "l2_miss"
	BucketFXU             = "fxu"
	BucketLSU             = "lsu"
	BucketBRU             = "bru"
	BucketWindowFull      = "window_full"
	BucketCompletion      = "completion"
)

var bucketNames = [numBuckets + 1]string{
	BucketBase, BucketMispredictFlush, BucketTakenBubble, BucketL1DMiss, BucketL2Miss,
	BucketFXU, BucketLSU, BucketBRU, BucketWindowFull, BucketCompletion, ""}

// Report bundles the flat counters with the stall stack — the full
// observable state of one simulation.
type Report struct {
	Counters Counters   `json:"counters"`
	Stalls   StallStack `json:"stall_stack"`
}

// Add aggregates two reports field-wise.
func (r Report) Add(o Report) Report {
	return Report{Counters: r.Counters.Add(o.Counters), Stalls: r.Stalls.Add(o.Stalls)}
}
