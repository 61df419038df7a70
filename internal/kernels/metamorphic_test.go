package kernels

import (
	"testing"

	"bioperf5/internal/cpu"
)

// TestTimingMetamorphic holds the timing model to relations between
// configurations rather than to recorded numbers.  One seed-1 trace of
// each app's original and combination build is replayed at 2, 3 and 4
// FXUs with the BTAC off and on:
//   - the functional stream (instructions, branches, taken branches)
//     and the direction predictor's mispredictions do not depend on
//     either knob;
//   - at a fixed BTAC setting, more FXUs never cost cycles;
//   - each correct BTAC prediction removes exactly one taken-branch
//     bubble, and so saves at most TakenBranchPenalty cycles.
func TestTimingMetamorphic(t *testing.T) {
	for _, k := range All() {
		for _, v := range []Variant{Branchy, Combination} {
			tr := goldenTrace(t, k, v)
			var first cpu.Counters
			prevCycles := map[bool]uint64{}
			for _, fxus := range []int{2, 3, 4} {
				var byBTAC [2]cpu.Counters
				for i, btac := range []bool{false, true} {
					cfg := cpu.POWER5Baseline()
					cfg.NumFXU = fxus
					cfg.UseBTAC = btac
					rep, err := ReplayTrace(k, v, tr, cfg)
					if err != nil {
						t.Fatalf("%s/%s fxus=%d btac=%v: replay: %v", k.App, v, fxus, btac, err)
					}
					c := rep.Counters
					byBTAC[i] = c
					if fxus == 2 && !btac {
						first = c
					}
					if c.Instructions != first.Instructions || c.Branches != first.Branches ||
						c.TakenBranches != first.TakenBranches || c.DirMispredicts != first.DirMispredicts {
						t.Errorf("%s/%s fxus=%d btac=%v: instructions/branches/taken/mispredicts %d/%d/%d/%d, at fxus=2 btac=off %d/%d/%d/%d",
							k.App, v, fxus, btac, c.Instructions, c.Branches, c.TakenBranches, c.DirMispredicts,
							first.Instructions, first.Branches, first.TakenBranches, first.DirMispredicts)
					}
					if prev, ok := prevCycles[btac]; ok && c.Cycles > prev {
						t.Errorf("%s/%s btac=%v: %d cycles at %d FXUs, %d at %d", k.App, v, btac, c.Cycles, fxus, prev, fxus-1)
					}
					prevCycles[btac] = c.Cycles
				}
				off, on := byBTAC[0], byBTAC[1]
				if off.TakenBubbles-on.TakenBubbles != on.BTACCorrect {
					t.Errorf("%s/%s fxus=%d: BTAC removes %d taken bubbles (%d -> %d), makes %d correct predictions",
						k.App, v, fxus, off.TakenBubbles-on.TakenBubbles, off.TakenBubbles, on.TakenBubbles, on.BTACCorrect)
				}
				penalty := uint64(cpu.POWER5Baseline().TakenBranchPenalty)
				if on.Cycles > off.Cycles || off.Cycles-on.Cycles > penalty*on.BTACCorrect {
					t.Errorf("%s/%s fxus=%d: BTAC takes cycles %d -> %d; want a saving in [0, %d x %d]",
						k.App, v, fxus, off.Cycles, on.Cycles, penalty, on.BTACCorrect)
				}
			}
		}
	}
}
