package bprof

import (
	"testing"

	"bioperf5/internal/branch"
	"bioperf5/internal/telemetry"
)

// feed drives a microbench kernel through a profile at a fixed PC,
// scoring mispredicts with a live predictor exactly as the timing
// model does.
func feed(p *Profile, spec string, mb branch.Microbench, n int) {
	pred, err := branch.FromSpec(spec)
	if err != nil {
		panic(err)
	}
	mb.Gen(n, func(ev branch.BranchEvent) {
		predTaken := pred.Predict(ev.PC)
		pred.Update(ev.PC, ev.Taken)
		p.OnCondBranch(ev.PC, ev.Taken, predTaken != ev.Taken)
	})
}

// TestTaxonomyGolden classifies each conformance kernel into the bucket
// its construction demands.
func TestTaxonomyGolden(t *testing.T) {
	cases := []struct {
		mb   branch.Microbench
		want Class
	}{
		{branch.AlwaysTaken(), ClassBiased},
		{branch.Biased(64, 7), ClassBiased},
		{branch.Loop(8), ClassLoopExit},
		{branch.Loop(32), ClassLoopExit},
		{branch.HistoryProbe(16), ClassLoopExit}, // a period is a trip count
		{branch.Alternating(), ClassHistory},
		{branch.Random(12345), ClassHard},
	}
	for _, c := range cases {
		p := New()
		feed(p, "tournament", c.mb, 4096)
		bs := p.Branches()
		if len(bs) != 1 {
			t.Fatalf("%s: %d sites, want 1", c.mb.Name, len(bs))
		}
		if bs[0].Class != c.want {
			t.Errorf("%s: classified %s, want %s (taken %d/%d, transitions %d, ref misses %d)",
				c.mb.Name, bs[0].Class, c.want, bs[0].Taken, bs[0].Executed,
				bs[0].Transitions, bs[0].RefMisses)
		}
	}
}

// TestTotalsMatchFeed pins the attribution invariant: per-site counts
// sum to exactly what was fed in.
func TestTotalsMatchFeed(t *testing.T) {
	p := New()
	feed(p, "bimodal", branch.Loop(8), 4000)
	exec, miss, _ := p.Totals()
	if exec != 4000 {
		t.Fatalf("executed %d, want 4000", exec)
	}
	// A warm bimodal on Loop(8) misses the exit once per trip; the exact
	// total is checked loosely here (cold-start transient included) and
	// exactly against the model counters in the harness tests.
	if miss == 0 || miss > 4000/8+4 {
		t.Fatalf("mispredicts %d outside the one-per-trip envelope", miss)
	}
}

// TestBTACAttribution: BTAC lookups attribute wrong targets per site.
func TestBTACAttribution(t *testing.T) {
	p := New()
	p.OnBTAC(10, true, false)
	p.OnBTAC(10, true, true)
	p.OnBTAC(10, false, false)
	p.OnBTAC(20, true, false)
	_, _, wrong := p.Totals()
	if wrong != 1 {
		t.Fatalf("btac wrong total %d, want 1", wrong)
	}
	for _, b := range p.Branches() {
		if b.PC == 10 {
			if b.BTACLookups != 3 || b.BTACPredicts != 2 || b.BTACWrong != 1 {
				t.Fatalf("site 10 = %+v", b)
			}
			if got := b.BTACWrongRate(); got != 0.5 {
				t.Fatalf("site 10 wrong rate %f, want 0.5", got)
			}
		}
	}
}

// TestPublishTo: the branch.profile.* telemetry rows reflect the
// profile and republishing does not double-count.
func TestPublishTo(t *testing.T) {
	p := New()
	feed(p, "bimodal", branch.Random(3), 1000)
	reg := telemetry.NewRegistry()
	p.PublishTo(reg)
	p.PublishTo(reg) // idempotent republish
	_, miss, _ := p.Totals()
	byPC := reg.Labeled("branch.profile.mispredicts.pc")
	if got := byPC.Value("16"); got != miss {
		t.Fatalf("branch.profile.mispredicts.pc[16] = %d, want %d", got, miss)
	}
	byClass := reg.Labeled("branch.profile.mispredicts.class")
	var sum uint64
	for _, cl := range Classes() {
		sum += byClass.Value(string(cl))
	}
	if sum != miss {
		t.Fatalf("per-class mispredicts sum %d, want %d", sum, miss)
	}
}
