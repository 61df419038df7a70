package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"bioperf5/internal/core"
	"bioperf5/internal/fault"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/workload"
)

// smallSweep is a quick two-app slice of the design space used by the
// tier-1 determinism and cache tests.
func smallSweep(eng *sched.Engine) SweepSpec {
	return SweepSpec{
		FXUs:        []int{2, 4},
		BTACEntries: []int{0, 8},
		Variants:    []kernels.Variant{kernels.Branchy},
		Apps:        []string{"Clustalw", "Fasta"},
		Config:      Config{Scale: 1, Seeds: []int64{1}, Engine: eng},
	}
}

// manifestJSON serializes a manifest with its environment fields
// (elapsed time, worker count) zeroed — the canonical form determinism
// is asserted on.
func manifestJSON(t *testing.T, m *SweepManifest) []byte {
	t.Helper()
	clone := *m
	clone.ElapsedMS = 0
	clone.Scheduler.Workers = 0
	clone.Profile = nil
	b, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepDeterministicAcrossWorkerCounts is the tier-1 determinism
// gate: the same sweep on 1 worker and on 8 workers must produce
// byte-identical JSON manifests (modulo the timing field).
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var manifests [][]byte
	for _, workers := range []int{1, 8} {
		eng := sched.New(sched.Options{Workers: workers})
		m, err := RunSweep(smallSweep(eng))
		eng.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		manifests = append(manifests, manifestJSON(t, m))
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Errorf("manifests diverge between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			manifests[0], manifests[1])
	}
}

// TestSweepCaptureFirstOrderLeavesManifestAlone: RunSweep hands the
// scheduler one cell per distinct trace ahead of the rest of the grid,
// which must change nothing but when cells run.  The reference runs
// the paper grid one cell at a time in plan order; RunSweep on 1, 2
// and 4 workers must produce the same manifest bytes from exactly one
// capture per (application, variant).
func TestSweepCaptureFirstOrderLeavesManifestAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := DefaultSweepSpec()
	spec.Config = Config{Scale: 1, Seeds: []int64{1}}

	inOrder := func() []byte {
		eng := sched.New(sched.Options{Workers: 1})
		defer eng.Close()
		sp := spec
		sp.Config.Engine = eng
		plan, err := PlanSweep(sp)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cells []PlanCell) []CellResult {
			out := make([]CellResult, len(cells))
			for i, pc := range cells {
				c := plan.Spec.Config.submitCell(pc.App, pc.Setup).collect()
				if c.err != nil {
					t.Fatal(c.err)
				}
				out[i] = c.CellResult
			}
			return out
		}
		m := plan.Manifest(run(plan.Baselines), run(plan.Points))
		m.Scheduler = eng.Stats()
		return manifestJSON(t, m)
	}()

	for _, workers := range []int{1, 2, 4} {
		eng := sched.New(sched.Options{Workers: workers})
		sp := spec
		sp.Config.Engine = eng
		m, err := RunSweep(sp)
		captures := eng.TraceStore().Stats().Captures
		eng.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := manifestJSON(t, m); !bytes.Equal(got, inOrder) {
			t.Errorf("%d workers: manifest differs from the in-order one", workers)
		}
		if want := uint64(len(spec.Apps) * len(spec.Variants)); captures != want {
			t.Errorf("%d workers: %d captures, want %d (one per trace)", workers, captures, want)
		}
	}
}

// TestSweepSecondRunHitsCacheOnly asserts a repeated identical sweep
// performs zero simulation work: every cell is served from the
// content-addressed cache, visible in the telemetry counters.
func TestSweepSecondRunHitsCacheOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sched.New(sched.Options{Workers: 4})
	defer eng.Close()
	spec := smallSweep(eng)

	m1, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	computed := eng.Registry().Counter("sched.jobs.computed").Value()
	if computed == 0 {
		t.Fatal("first sweep computed nothing")
	}

	m2, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if after := eng.Registry().Counter("sched.jobs.computed").Value(); after != computed {
		t.Errorf("second sweep simulated %d cells, want 0", after-computed)
	}
	hits := eng.Registry().Counter("sched.cache.memory.hits").Value()
	if hits == 0 {
		t.Error("cache-hit counter did not move")
	}
	// Identical numbers, served from cache.
	p1, p2 := m1.Points, m2.Points
	if len(p1) != len(p2) {
		t.Fatalf("point counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		a, _ := json.Marshal(p1[i])
		b, _ := json.Marshal(p2[i])
		if !bytes.Equal(a, b) {
			t.Errorf("point %d differs between runs:\n%s\n%s", i, a, b)
		}
	}
}

func TestSweepManifestShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sched.New(sched.Options{Workers: 4})
	defer eng.Close()
	spec := smallSweep(eng)
	m, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(spec.FXUs) * len(spec.BTACEntries) * len(spec.Variants) * len(spec.Apps)
	if len(m.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(m.Points), wantPoints)
	}
	if len(m.Best) != len(spec.Apps) {
		t.Fatalf("%d best entries, want %d", len(m.Best), len(spec.Apps))
	}
	seen := map[string]bool{}
	for _, p := range m.Points {
		if p.Key == "" || seen[p.Key] {
			t.Errorf("point %s/%s/%d/%d: missing or duplicate key", p.App, p.Variant, p.FXUs, p.BTACEntries)
		}
		seen[p.Key] = true
		if p.Stats.Aggregate.Counters.Instructions == 0 {
			t.Errorf("point %s/%s: empty stats", p.App, p.Variant)
		}
		if p.NormIPC <= 0 {
			t.Errorf("point %s/%s: norm IPC %f", p.App, p.Variant, p.NormIPC)
		}
	}
	// More hardware never hurts in this model: each app's best point
	// must improve on its baseline.
	for _, b := range m.Best {
		if b.Improvement < 0 {
			t.Errorf("%s: best improvement %.3f negative", b.App, b.Improvement)
		}
	}
	// The manifest round-trips as JSON and renders as tables.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid manifest JSON")
	}
	if m.Summary().Render() == "" || m.Grid().Render() == "" {
		t.Fatal("empty summary/grid render")
	}
	// The baseline grid point is shared with the normalization cell, so
	// the scheduler must have deduplicated it.
	if m.Scheduler.MemoryHits == 0 {
		t.Error("baseline cell not deduplicated with normalization cell")
	}
}

// TestSweepPredictorDimension: predictor specs are a first-class sweep
// axis — canonicalized, deduplicated, multiplied into the grid, and
// spelling-independent down to the manifest bytes.
func TestSweepPredictorDimension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := SweepSpec{
		FXUs:        []int{2},
		BTACEntries: []int{0},
		Variants:    []kernels.Variant{kernels.Branchy},
		Apps:        []string{"Fasta"},
		Predictors:  []string{"gshare", "gshare:bits=12,hist=11", "tage"},
		Config:      Config{Scale: 1, Seeds: []int64{1}},
	}
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The two gshare spellings collapse to one canonical spec.
	if len(plan.Spec.Predictors) != 2 {
		t.Fatalf("predictors not deduplicated: %v", plan.Spec.Predictors)
	}
	if len(plan.Points) != 2 {
		t.Fatalf("%d points, want 2 (one per distinct predictor)", len(plan.Points))
	}
	for _, pc := range plan.Points {
		if pc.Setup.CPU.Predictor != pc.Predictor {
			t.Errorf("cell predictor %q != setup predictor %q", pc.Predictor, pc.Setup.CPU.Predictor)
		}
		if pc.Predictor != "gshare:bits=12,hist=11" && pc.Predictor != "tage:tables=4,bits=10,tag=8,hist=2..64" {
			t.Errorf("non-canonical cell predictor %q", pc.Predictor)
		}
	}

	// Equivalent spellings produce byte-identical manifests.  Each run
	// gets a fresh engine so the scheduler snapshot (hit counts are
	// engine-lifetime state) is identical too.
	var manifests [][]byte
	for _, preds := range [][]string{
		{"perceptron"},
		{" Perceptron : hist=24 , weights=256 "},
	} {
		eng := sched.New(sched.Options{Workers: 4})
		sp := smallSweep(eng)
		sp.Apps = []string{"Fasta"}
		sp.Predictors = preds
		m, err := RunSweep(sp)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, manifestJSON(t, m))
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Errorf("manifests diverge across predictor spellings:\n%s\n---\n%s",
			manifests[0], manifests[1])
	}
}

func TestDefaultSweepSpecCoversPaperGrid(t *testing.T) {
	sp := DefaultSweepSpec()
	if len(sp.FXUs) != 3 || len(sp.BTACEntries) != 2 || len(sp.Apps) != len(workload.Apps()) {
		t.Errorf("default spec = %+v", sp)
	}
}

// paperExperiments is the registry without the host-timed fig1: the
// part of the paper that is deterministic.
func paperExperiments() []*Experiment {
	var out []*Experiment
	for _, e := range Registry() {
		if e.ID != "fig1" {
			out = append(out, e)
		}
	}
	return out
}

// TestExperimentsParallelMatchesSerial is the acceptance gate for the
// paper as one plan: every report rendered through a 1-worker engine and
// through an 8-worker engine must be byte-identical.
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var outs [2][]*Report
	for i, workers := range []int{1, 8} {
		eng := sched.New(sched.Options{Workers: workers})
		reps, err := RunPaper(Config{Scale: 1, Seeds: []int64{1}, Engine: eng}, paperExperiments()...)
		eng.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		outs[i] = reps
	}
	for i, serial := range outs[0] {
		parallel := outs[1][i]
		t.Run(serial.ID, func(t *testing.T) {
			a, b := serial.Table().Render(), parallel.Table().Render()
			if a != b {
				t.Errorf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
			}
			ja, _ := json.Marshal(serial)
			jb, _ := json.Marshal(parallel)
			if !bytes.Equal(ja, jb) {
				t.Error("parallel report diverges from serial")
			}
		})
	}
}

// TestPaperRunsEachCellOnce: the paper is one plan, so a Config.Submit
// sees each distinct (application, setup) cell the experiments declare
// exactly once — 13 per application — and the tables rendered from its
// results equal a local run's.
func TestPaperRunsEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sched.New(sched.Options{Workers: 4})
	defer eng.Close()
	local := Config{Scale: 1, Seeds: []int64{1}, Engine: eng}
	want, err := RunPaper(local, paperExperiments()...)
	if err != nil {
		t.Fatal(err)
	}

	fresh := sched.New(sched.Options{Workers: 4})
	defer fresh.Close()
	counted := Config{Scale: 1, Seeds: []int64{1}, Engine: fresh}
	var mu sync.Mutex
	seen := map[string]int{}
	counted.Submit = func(ctx context.Context, pc PlanCell) func() CellResult {
		mu.Lock()
		seen[pc.Key]++
		mu.Unlock()
		return counted.submitLocal(ctx, pc)
	}
	got, err := RunPaper(counted, paperExperiments()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * len(kernels.All()); len(seen) != want {
		t.Errorf("Submit saw %d distinct cells, want %d", len(seen), want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("cell %s submitted %d times", key[:12], n)
		}
	}
	for i := range want {
		if a, b := want[i].Table().Render(), got[i].Table().Render(); a != b {
			t.Errorf("%s through Submit differs from the local run:\n%s\nvs\n%s", want[i].ID, b, a)
		}
	}
}

// TestPaperFailsAtTheExperimentWhoseCellFailed pins the failure
// semantics of one plan: a cell only Figure 5 reads (the original binary
// on 3 FXUs) fails permanently, the experiments before fig5 still
// render, and the run fails naming fig5.
func TestPaperFailsAtTheExperimentWhoseCellFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Scale: 1, Seeds: []int64{1}}
	doomed := cfg.jobs("Hmmer", core.Baseline().WithFXUs(3))[0].Hash()
	allow := map[string]bool{}
	for _, e := range Registry() {
		for _, k := range kernels.All() {
			for _, s := range e.Setups {
				if h := cfg.jobs(k.App, s)[0].Hash(); h != doomed {
					allow[h] = true
				}
			}
		}
	}
	eng := sched.New(sched.Options{
		Workers: 2, Retries: 1,
		Injector: &hashInjector{kind: fault.Error, allow: allow},
	})
	defer eng.Close()
	cfg.Engine = eng
	reps, err := RunPaper(cfg, paperExperiments()...)
	if err == nil || !strings.HasPrefix(err.Error(), "fig5: ") {
		t.Fatalf("err = %v, want one naming fig5", err)
	}
	var ids []string
	for _, rep := range reps {
		ids = append(ids, rep.ID)
	}
	if got := strings.Join(ids, ","); got != "table1,fig2,fig3,table2,fig4" {
		t.Errorf("rendered %s before the failure, want table1,fig2,fig3,table2,fig4", got)
	}
}

// hashInjector fails a fixed fault kind at the execute site for every
// cell hash outside its allow set, on every attempt — a targeted,
// unrecoverable fault used to drive the degradation paths.
type hashInjector struct {
	kind  fault.Kind
	delay time.Duration
	allow map[string]bool
}

func (h *hashInjector) Decide(site fault.Site, hash string, attempt int) fault.Decision {
	if site != fault.SiteExecute || h.allow[hash] {
		return fault.Decision{}
	}
	return fault.Decision{Kind: h.kind, Delay: h.delay}
}

// baselineHashes returns the job hashes of every app's normalization
// baseline in the small sweep (seed 1, scale 1).
func baselineHashes() map[string]bool {
	allow := map[string]bool{}
	for _, app := range []string{"Clustalw", "Fasta"} {
		j := sched.Job{
			App: app, Variant: kernels.Branchy,
			CPU: core.Baseline().CPU, Seed: 1, Scale: 1,
		}
		allow[j.Hash()] = true
	}
	return allow
}

// TestSweepDegradesFailedCells: when grid cells fail permanently the
// sweep still returns a manifest naming exactly which cells are
// missing, and Best is computed from the surviving points only.
func TestSweepDegradesFailedCells(t *testing.T) {
	eng := sched.New(sched.Options{
		Workers: 2, Retries: 1,
		Injector: &hashInjector{kind: fault.Error, allow: baselineHashes()},
	})
	defer eng.Close()
	m, err := RunSweep(smallSweep(eng))
	if err != nil {
		t.Fatalf("RunSweep must degrade, not abort: %v", err)
	}
	var ok, failed int
	for _, p := range m.Points {
		switch p.Status {
		case StatusOK:
			ok++
			// Only the cell that coincides with the baseline survives.
			if p.FXUs != 2 || p.BTACEntries != 0 {
				t.Errorf("unexpected surviving cell %s/%d/%d", p.App, p.FXUs, p.BTACEntries)
			}
		case StatusFailed:
			failed++
			if p.Error == "" {
				t.Errorf("failed cell %s/%d/%d carries no error", p.App, p.FXUs, p.BTACEntries)
			}
			if p.NormIPC != 0 || p.Stats.Aggregate.Counters.Cycles != 0 {
				t.Errorf("failed cell %s/%d/%d carries stats", p.App, p.FXUs, p.BTACEntries)
			}
		default:
			t.Errorf("cell %s/%d/%d status %q", p.App, p.FXUs, p.BTACEntries, p.Status)
		}
	}
	if ok != 2 || failed != 6 || m.Degraded != 6 {
		t.Errorf("ok=%d failed=%d degraded=%d, want 2/6/6", ok, failed, m.Degraded)
	}
	if len(m.DegradedPoints()) != 6 {
		t.Errorf("DegradedPoints = %d entries", len(m.DegradedPoints()))
	}
	// Best still exists per app, drawn from the ok points.
	if len(m.Best) != 2 {
		t.Fatalf("best = %+v", m.Best)
	}
	for _, b := range m.Best {
		if b.FXUs != 2 || b.BTACEntries != 0 {
			t.Errorf("best drawn from a degraded cell: %+v", b)
		}
	}
	// The grid renders degraded rows with their status, not numbers.
	if grid := m.Grid().Render(); !strings.Contains(grid, StatusFailed) {
		t.Errorf("grid does not mark failed cells:\n%s", grid)
	}
}

// TestSweepSkipsCellsWhenBaselineFails: a dead baseline cannot
// normalize anything, so its application's cells are skipped — but the
// sweep still reports them all.
func TestSweepSkipsCellsWhenBaselineFails(t *testing.T) {
	eng := sched.New(sched.Options{
		Workers:  2,
		Injector: &hashInjector{kind: fault.Error}, // fail everything
	})
	defer eng.Close()
	m, err := RunSweep(smallSweep(eng))
	if err != nil {
		t.Fatalf("RunSweep must degrade, not abort: %v", err)
	}
	if len(m.Points) != 8 || m.Degraded != 8 {
		t.Fatalf("points=%d degraded=%d, want 8/8", len(m.Points), m.Degraded)
	}
	for _, p := range m.Points {
		if p.Status != StatusSkipped || !strings.Contains(p.Error, "baseline failed") {
			t.Errorf("cell %s/%d/%d: status=%q error=%q", p.App, p.FXUs, p.BTACEntries, p.Status, p.Error)
		}
	}
	if len(m.Best) != 0 {
		t.Errorf("best from a fully degraded sweep: %+v", m.Best)
	}
}

// TestSweepMarksTimeouts: a cell that exceeds its deadline on every
// attempt is reported as "timeout", distinct from other failures.
func TestSweepMarksTimeouts(t *testing.T) {
	// A deadline generous enough for real cells even under the race
	// detector, and a single non-baseline grid point per app so the two
	// injected hangs trip their watchdogs concurrently.
	eng := sched.New(sched.Options{
		Workers:     2,
		CellTimeout: 3 * time.Second,
		Injector: &hashInjector{
			kind: fault.Hang, delay: time.Minute, allow: baselineHashes(),
		},
	})
	defer eng.Close()
	sp := smallSweep(eng)
	sp.FXUs = []int{4}
	sp.BTACEntries = []int{8}
	m, err := RunSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	var timeouts int
	for _, p := range m.Points {
		if p.Status == StatusTimeout {
			timeouts++
		}
	}
	if timeouts != 2 || m.Degraded != 2 {
		t.Errorf("timeouts=%d degraded=%d, want 2/2:\n%+v", timeouts, m.Degraded, m.Points)
	}
}

// TestSweepElapsedLine checks both renderings of the closing summary.
func TestSweepElapsedLine(t *testing.T) {
	m := &SweepManifest{ElapsedMS: 1500}
	if got := m.elapsedLine(); got != "elapsed: 1.5s wall" {
		t.Errorf("bare line = %q", got)
	}
	m.Profile = &SweepProfile{
		Aggregate: telemetry.StageCost{CaptureNS: 3_000_000_000, ReplayNS: 1_000_000_000},
	}
	m.Profile.Stages = m.Profile.Aggregate.Stages()
	got := m.elapsedLine()
	for _, want := range []string{"1.5s wall", "4s attributed", "trace.capture", "75%"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q missing %q", got, want)
		}
	}
}
