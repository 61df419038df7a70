package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
)

// TestColdSweepProfile is the attribution acceptance gate: on a cold
// engine (nothing cached, no traces) every point that did work of its
// own reports where the time went — simulation work (a capture or a
// replay) is present, the stages fit inside the measured wall time, and
// the aggregate names simulation as the dominant stage.  A capture
// times its own cell, so a capturing cell records no replay; the
// second FXU count gives each trace a replay.  The assertions
// are structural: which of capture and replay costs more, and how close
// the stage sum comes to the total, are host timings the benchmark
// judges, not tier-1.
func TestColdSweepProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 8 workers for 10 cells: no worker starvation, so queue wait stays
	// a minor stage and the attribution reflects simulation work.
	// FXUs 2 makes the branchy grid point coincide with the POWER5
	// baseline — it coalesces and reports zero cost, covering the
	// shared-cell path.
	eng := sched.New(sched.Options{Workers: 8})
	defer eng.Close()
	tr := telemetry.NewTracer(0, eng.Registry())

	sp := SweepSpec{
		FXUs:        []int{2, 3},
		BTACEntries: []int{0},
		Variants:    []kernels.Variant{kernels.Branchy, kernels.Combination},
		Apps:        []string{"Fasta", "Blast"},
		Config: Config{
			Scale:   2,
			Seeds:   []int64{1},
			Engine:  eng,
			Context: telemetry.WithTracer(context.Background(), tr),
		},
	}
	m, err := RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded != 0 {
		t.Fatalf("degraded cells on a clean sweep: %d", m.Degraded)
	}
	p := m.Profile
	if p == nil {
		t.Fatal("manifest has no profile")
	}
	if len(p.Points) != len(m.Points) {
		t.Fatalf("profile covers %d of %d points", len(p.Points), len(m.Points))
	}

	// Per-point: every stage is timed inside the cell's wall time, so
	// the stages never exceed it, and a cold cell either captured or
	// replayed.  A coalesced point did no work of its own and reports
	// all zeros.
	measured := 0
	for i, pc := range p.Points {
		if pc.Key != m.Points[i].Key {
			t.Fatalf("profile point %d key %s != manifest %s", i, pc.Key, m.Points[i].Key)
		}
		c := pc.Cost
		if c.IsZero() {
			continue
		}
		measured++
		if (c.CaptureNS > 0) == (c.ReplayNS > 0) {
			t.Errorf("point %d (%s/%s): want exactly one of capture and replay cost on a cold engine: %+v",
				i, m.Points[i].App, m.Points[i].Variant, c)
		}
		sum := c.QueueNS + c.CompileNS + c.CaptureNS + c.ReplayNS + c.SimNS + c.CacheNS
		if sum > c.TotalNS {
			t.Errorf("point %d (%s/%s): stage sum %d exceeds total %d",
				i, m.Points[i].App, m.Points[i].Variant, sum, c.TotalNS)
		}
	}
	if measured < 2 {
		t.Fatalf("only %d points carried a measured breakdown", measured)
	}

	if got := p.Dominant; got != telemetry.StageCapture && got != telemetry.StageReplay {
		t.Errorf("dominant cold-path stage = %q, want capture or replay (aggregate %+v)",
			got, p.Aggregate)
	}
	if len(p.Stages) == 0 || p.Stages[0].NS < p.Stages[len(p.Stages)-1].NS {
		t.Errorf("stage table not descending: %+v", p.Stages)
	}
	if tbl := m.ProfileTable(); tbl == nil || len(tbl.Rows) == 0 {
		t.Error("ProfileTable empty on a profiled sweep")
	}

	// The spans the sweep recorded export as Perfetto-loadable
	// trace-event JSON with the capture stage present.
	names := map[string]int{}
	children := map[uint64]map[string]bool{} // parent span -> child names
	for _, d := range tr.Spans() {
		names[d.Name]++
		if children[d.Parent] == nil {
			children[d.Parent] = map[string]bool{}
		}
		children[d.Parent][d.Name] = true
	}
	for parent, kids := range children {
		if kids[telemetry.StageCapture] && kids[telemetry.StageReplay] {
			t.Errorf("span %d recorded both a capture and a replay: a capture times its own cell", parent)
		}
	}
	for _, want := range []string{telemetry.StageExecute, telemetry.StageQueue,
		telemetry.StageCapture, telemetry.StageReplay, telemetry.StageCompile} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded (have %v)", want, names)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace-event export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Spans()) {
		t.Errorf("exported %d events for %d spans", len(doc.TraceEvents), len(tr.Spans()))
	}
}

// TestWarmSweepProfileCheap re-runs the same sweep on the same engine:
// every cell coalesces onto the memoized results, so the warm profile
// must attribute no fresh simulation work — no captures, no replays.
func TestWarmSweepProfileCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sched.New(sched.Options{Workers: 2})
	defer eng.Close()
	sp := SweepSpec{
		FXUs:        []int{3},
		BTACEntries: []int{0},
		Variants:    []kernels.Variant{kernels.Branchy},
		Apps:        []string{"Fasta"},
		Config:      Config{Scale: 1, Seeds: []int64{1}, Engine: eng},
	}
	if _, err := RunSweep(sp); err != nil {
		t.Fatal(err)
	}
	m, err := RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a := m.Profile.Aggregate; a.CaptureNS != 0 || a.ReplayNS != 0 || a.SimNS != 0 {
		t.Errorf("warm sweep attributed fresh simulation work: %+v", a)
	}
}
