// Package bprof is the per-static-branch predictability profiler.  It
// implements cpu.BranchProfiler: the timing core feeds it every
// resolved conditional branch (with the live predictor's verdict) and
// every BTAC lookup, keyed by static PC.  From that stream it
// builds, per branch site, the execution and mispredict counts the
// aggregate hardware counters only report machine-wide — and classifies
// each site into a predictability taxonomy:
//
//   - biased: one direction dominates (a bounds check, an error
//     branch); any counter predicts it.
//   - loop-exit: a regular trip-count structure — runs of the majority
//     direction of constant length, broken by single minority outcomes
//     (the exit).  Mispredicted once per trip by a counter, learnable
//     by history predictors whose reach covers the trip count.
//   - history: predictable from local outcome history (the profiler
//     runs a reference local-history predictor per site to measure
//     this), but without loop structure — alternation, short patterns.
//   - hard: data-dependent direction that even the reference history
//     predictor cannot learn; near the site's minority rate is the
//     floor any real predictor can reach.
//
// The taxonomy follows the characterization methodology of the branch
// studies the paper builds on: attributing the machine-wide mispredict
// rate to a handful of hot static branches is what turns "the predictor
// misses 9% of the time" into "the inner-loop data compare at PC 61 is
// unpredictable; everything else is noise".
package bprof

import (
	"sort"
	"strconv"

	"bioperf5/internal/telemetry"
)

// Class is one predictability bucket of the taxonomy.
type Class string

// The taxonomy, ordered from most to least predictable.  Unconditional
// sites carry no direction to predict — they appear in profiles only
// through their BTAC lookups.
const (
	ClassBiased        Class = "biased"
	ClassLoopExit      Class = "loop-exit"
	ClassHistory       Class = "history"
	ClassHard          Class = "hard"
	ClassUnconditional Class = "unconditional"
)

// Classes lists every taxonomy bucket in display order.
func Classes() []Class {
	return []Class{ClassBiased, ClassLoopExit, ClassHistory, ClassHard, ClassUnconditional}
}

// Reference local-history predictor geometry: 8 bits of per-site
// history indexing 256 two-bit counters per site.  Small enough to run
// per static branch, long enough to learn trip counts to 256.
const (
	refHistBits = 8
	refTable    = 1 << refHistBits
)

// runStat tracks min/max completed run lengths of one outcome.
type runStat struct {
	min, max uint64
	runs     uint64
}

func (r *runStat) note(length uint64) {
	if r.runs == 0 || length < r.min {
		r.min = length
	}
	if length > r.max {
		r.max = length
	}
	r.runs++
}

// site is the per-static-branch accumulator.
type site struct {
	executed    uint64
	taken       uint64
	mispredicts uint64 // live direction predictor, from the timing model

	btacLookups  uint64
	btacPredicts uint64
	btacWrong    uint64

	transitions uint64 // direction flips between consecutive executions
	refMisses   uint64 // reference local-history predictor misses

	// Run-length structure for loop-exit detection.  The current run is
	// open; only completed runs feed the stats.
	curTaken bool
	curLen   uint64
	started  bool
	runT     runStat // completed runs of taken outcomes
	runN     runStat // completed runs of not-taken outcomes

	// Reference predictor state: per-site local history indexing
	// two-bit counters (initialized weakly not-taken, like the model's).
	refHist uint8
	refCtr  [refTable]uint8
}

func (s *site) onOutcome(taken, mispredicted bool) {
	s.executed++
	if taken {
		s.taken++
	}
	if mispredicted {
		s.mispredicts++
	}

	// Reference local-history predictor (measurement only — the real
	// predictor's verdict arrives in `mispredicted`).
	ctr := &s.refCtr[s.refHist]
	if (*ctr >= 2) != taken {
		s.refMisses++
	}
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
	s.refHist <<= 1
	if taken {
		s.refHist |= 1
	}

	// Run-length bookkeeping.
	if !s.started {
		s.started, s.curTaken, s.curLen = true, taken, 1
		return
	}
	if taken == s.curTaken {
		s.curLen++
		return
	}
	s.transitions++
	if s.curTaken {
		s.runT.note(s.curLen)
	} else {
		s.runN.note(s.curLen)
	}
	s.curTaken, s.curLen = taken, 1
}

// Branch is the exported per-site profile row.
type Branch struct {
	PC          int    `json:"pc"`
	Executed    uint64 `json:"executed"`
	Taken       uint64 `json:"taken"`
	Mispredicts uint64 `json:"mispredicts"`

	BTACLookups  uint64 `json:"btac_lookups,omitempty"`
	BTACPredicts uint64 `json:"btac_predicts,omitempty"`
	BTACWrong    uint64 `json:"btac_wrong,omitempty"`

	Transitions uint64 `json:"transitions"`
	RefMisses   uint64 `json:"ref_misses"`
	Class       Class  `json:"class"`
}

// MispredictRate is the live predictor's miss rate at this site.
func (b Branch) MispredictRate() float64 {
	if b.Executed == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Executed)
}

// TakenRate is the fraction of executions that were taken.
func (b Branch) TakenRate() float64 {
	if b.Executed == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Executed)
}

// BTACWrongRate is wrong targets per BTAC prediction at this site —
// the per-static-branch resolution of Counters.BTACMispredictRate.
func (b Branch) BTACWrongRate() float64 {
	if b.BTACPredicts == 0 {
		return 0
	}
	return float64(b.BTACWrong) / float64(b.BTACPredicts)
}

// Classification thresholds.  They are heuristics over exact counts:
// biased means the minority direction is under 5% of executions;
// loop-exit demands the regular run structure of a trip count; history
// means the reference local predictor misses under 5%.
const (
	biasedMinorityMax = 0.05
	historyMissMax    = 0.05
)

// classify derives the taxonomy bucket from the accumulated structure.
func (s *site) classify() Class {
	if s.executed == 0 {
		// Never resolved as a conditional branch: a BTAC-only site
		// (unconditional call/jump).
		return ClassUnconditional
	}
	minority := s.taken
	minorityRuns, majorityRuns := s.runT, s.runN
	if s.taken*2 > s.executed {
		minority = s.executed - s.taken
		minorityRuns, majorityRuns = s.runN, s.runT
	}
	minorityFrac := float64(minority) / float64(s.executed)

	// Loop-exit: every minority outcome is isolated (runs of length 1)
	// and the majority runs have a constant trip length of at least 2.
	// Checked before biased so a long-trip loop (minority well under 5%)
	// still reads as loop structure.
	if minorityRuns.runs >= 2 && minorityRuns.min == 1 && minorityRuns.max == 1 &&
		majorityRuns.runs >= 2 && majorityRuns.min >= 2 &&
		majorityRuns.max-majorityRuns.min <= 1 {
		return ClassLoopExit
	}
	if minorityFrac <= biasedMinorityMax {
		return ClassBiased
	}
	if float64(s.refMisses)/float64(s.executed) <= historyMissMax {
		return ClassHistory
	}
	return ClassHard
}

// Profile accumulates per-static-branch statistics for one or more
// runs.  It implements cpu.BranchProfiler.  Not safe for concurrent
// use.
type Profile struct {
	sites map[int]*site
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{sites: make(map[int]*site)}
}

func (p *Profile) site(pc int) *site {
	s, ok := p.sites[pc]
	if !ok {
		s = &site{}
		p.sites[pc] = s
	}
	return s
}

// OnCondBranch implements cpu.BranchProfiler.
func (p *Profile) OnCondBranch(pc int, taken, mispredicted bool) {
	p.site(pc).onOutcome(taken, mispredicted)
}

// OnBTAC implements cpu.BranchProfiler.
func (p *Profile) OnBTAC(pc int, predicted, wrong bool) {
	s := p.site(pc)
	s.btacLookups++
	if predicted {
		s.btacPredicts++
	}
	if wrong {
		s.btacWrong++
	}
}

// Branches returns the profile rows sorted by descending mispredicts
// (then ascending PC): the attribution order a report wants.
func (p *Profile) Branches() []Branch {
	out := make([]Branch, 0, len(p.sites))
	for pc, s := range p.sites {
		out = append(out, Branch{
			PC:           pc,
			Executed:     s.executed,
			Taken:        s.taken,
			Mispredicts:  s.mispredicts,
			BTACLookups:  s.btacLookups,
			BTACPredicts: s.btacPredicts,
			BTACWrong:    s.btacWrong,
			Transitions:  s.transitions,
			RefMisses:    s.refMisses,
			Class:        s.classify(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mispredicts != out[j].Mispredicts {
			return out[i].Mispredicts > out[j].Mispredicts
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Totals sums the per-site counters.  By construction the mispredict
// total equals the model's Counters.DirMispredicts and the wrong-target
// total equals Counters.TgtMispredicts for the profiled run — the
// invariant the branches report asserts.
func (p *Profile) Totals() (executed, mispredicts, btacWrong uint64) {
	for _, s := range p.sites {
		executed += s.executed
		mispredicts += s.mispredicts
		btacWrong += s.btacWrong
	}
	return
}

// PublishTo mirrors the profile into a telemetry registry: the number
// of profiled sites, per-class site counts, and mispredict attribution
// per PC and per class under the branch.profile.* namespace.  Labeled
// counters are monotone, so republishing sets them to the current
// totals via deltas.
func (p *Profile) PublishTo(reg *telemetry.Registry) {
	reg.Gauge("branch.profile.branches").Set(float64(len(p.sites)))
	sites := map[Class]uint64{}
	misses := map[Class]uint64{}
	byPC := reg.Labeled("branch.profile.mispredicts.pc")
	for _, b := range p.Branches() {
		sites[b.Class]++
		misses[b.Class] += b.Mispredicts
		if b.Mispredicts > 0 {
			label := strconv.Itoa(b.PC)
			if have := byPC.Value(label); b.Mispredicts > have {
				byPC.Add(label, b.Mispredicts-have)
			}
		}
	}
	byClass := reg.Labeled("branch.profile.mispredicts.class")
	for _, cl := range Classes() {
		reg.Gauge("branch.profile.class." + string(cl)).Set(float64(sites[cl]))
		if have := byClass.Value(string(cl)); misses[cl] > have {
			byClass.Add(string(cl), misses[cl]-have)
		}
	}
}
