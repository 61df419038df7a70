package core

import (
	"testing"

	"bioperf5/internal/kernels"
)

// TestStallStackInvariantTier1Workloads is the acceptance gate for the
// CPI stall stack: on every tier-1 workload (the four application
// kernels), under the baseline core and under the paper's improved
// core, the stall buckets must sum exactly to the cycle count — per
// seed and in aggregate.
func TestStallStackInvariantTier1Workloads(t *testing.T) {
	setups := []Setup{
		Baseline(),
		Baseline().WithVariant(kernels.Combination).WithBTAC().WithFXUs(4),
	}
	seeds := []int64{1, 2}
	for _, k := range kernels.All() {
		for _, s := range setups {
			det, err := Simulate(Request{App: k.App, Variant: s.Variant, Seeds: seeds, Scale: 1, CPU: s.CPU, Trace: TraceOff})
			if err != nil {
				t.Fatalf("%s / %s: %v", k.App, s.Name, err)
			}
			for _, sr := range det.Seeds {
				if got, want := sr.Stalls.Total(), sr.Counters.Cycles; got != want {
					t.Errorf("%s / %s seed %d: stall stack %d != cycles %d\n%+v",
						k.App, s.Name, sr.Seed, got, want, sr.Stalls)
				}
			}
			agg := det.Aggregate
			if got, want := agg.Stalls.Total(), agg.Counters.Cycles; got != want {
				t.Errorf("%s / %s aggregate: stall stack %d != cycles %d",
					k.App, s.Name, got, want)
			}
			// The stack must not be degenerate: a DP kernel spends
			// cycles outside the base bucket.
			if agg.Stalls.Base == agg.Stalls.Total() {
				t.Errorf("%s / %s: all cycles fell in the base bucket", k.App, s.Name)
			}
		}
	}
}
