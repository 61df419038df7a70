package harness

import (
	"context"
	"testing"

	"bioperf5/internal/core"
	"bioperf5/internal/telemetry"
)

// TestRunBranchesAttribution pins the report's core invariant: the
// per-static-branch counts sum exactly to the machine-wide counters
// (RunBranches fails internally otherwise), every site is classified,
// and the class histogram covers every site.
func TestRunBranchesAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunBranches(Quick(), "Clustalw", core.Baseline().WithBTAC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Branches) == 0 {
		t.Fatal("no branch sites profiled")
	}
	var exec, miss, wrong uint64
	classed := 0
	for _, b := range rep.Branches {
		exec += b.Executed
		miss += b.Mispredicts
		wrong += b.BTACWrong
		if b.Class == "" {
			t.Errorf("pc %d: unclassified", b.PC)
		}
		classed += rep.Classes[string(b.Class)]
	}
	if exec != rep.CondBranches || miss != rep.DirMispredicts || wrong != rep.TgtMispredicts {
		t.Errorf("per-site sums %d/%d/%d != aggregates %d/%d/%d",
			exec, miss, wrong, rep.CondBranches, rep.DirMispredicts, rep.TgtMispredicts)
	}
	total := 0
	for _, n := range rep.Classes {
		total += n
	}
	if total != len(rep.Branches) {
		t.Errorf("class histogram covers %d sites, want %d", total, len(rep.Branches))
	}
	// Hottest-first ordering.
	for i := 1; i < len(rep.Branches); i++ {
		if rep.Branches[i].Mispredicts > rep.Branches[i-1].Mispredicts {
			t.Errorf("rows not sorted by mispredicts at %d", i)
			break
		}
	}
	if tab := rep.Table(); len(tab.Rows) != len(rep.Branches) {
		t.Errorf("table has %d rows, want %d", len(tab.Rows), len(rep.Branches))
	}
}

// TestRunBranchesWithZooPredictor: the profiler composes with any
// registered predictor spec, and the counters it attributes are the
// spec's own (a TAGE profile differs from the tournament profile).
func TestRunBranchesWithZooPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := core.Baseline()
	tage := base
	tage.CPU.Predictor = "tage:tables=4,hist=2..64"
	repBase, err := RunBranches(Quick(), "Fasta", base)
	if err != nil {
		t.Fatal(err)
	}
	repTage, err := RunBranches(Quick(), "Fasta", tage)
	if err != nil {
		t.Fatal(err)
	}
	if repTage.Predictor != "tage:tables=4,bits=10,tag=8,hist=2..64" {
		t.Errorf("predictor not canonicalized: %q", repTage.Predictor)
	}
	if repBase.CondBranches != repTage.CondBranches {
		t.Errorf("predictor changed the branch stream: %d vs %d",
			repBase.CondBranches, repTage.CondBranches)
	}
}

// TestRunBranchesKeepsCallerContext: with a tracer in the configuration's
// context, the profiled simulation records its spans under the caller's
// span, so a served or CLI-traced experiment keeps one span tree.
func TestRunBranchesKeepsCallerContext(t *testing.T) {
	tr := telemetry.NewTracer(0, nil)
	ctx, root := telemetry.StartSpan(telemetry.WithTracer(context.Background(), tr), "caller")
	cfg := Quick()
	cfg.Context = ctx
	if _, err := RunBranches(cfg, "Fasta", core.Baseline()); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := tr.Spans()
	parents := map[uint64]uint64{}
	var rootID uint64
	for _, s := range spans {
		parents[s.ID] = s.Parent
		if s.Name == "caller" {
			rootID = s.ID
		}
	}
	if len(spans) < 2 {
		t.Fatalf("recorded %d spans, want the caller's and the simulation's", len(spans))
	}
	for _, s := range spans {
		id := s.ID
		for id != rootID && id != 0 {
			id = parents[id]
		}
		if id != rootID {
			t.Errorf("span %q (id %d) is not under the caller's span", s.Name, s.ID)
		}
	}
}
