package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"bioperf5/internal/branch"
	"bioperf5/internal/cas"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/workload"
)

// SweepSpec is a full-factorial design-space sweep: every combination
// of FXU count x BTAC sizing x direction predictor x predication
// variant is simulated for every application, through the scheduler in
// Config.Engine (or the shared default engine).
type SweepSpec struct {
	FXUs        []int             // fixed-point unit counts (paper: 2..4)
	BTACEntries []int             // BTAC entry counts; 0 disables the BTAC
	Predictors  []string          // direction-predictor specs (see branch.ParseSpec)
	Variants    []kernels.Variant // predication variants
	Apps        []string          // application names
	Config      Config            // scale, seeds and the engine to run on
}

// DefaultSweepSpec is the paper's design space: FXUs 2-4, BTAC off and
// 8-entry, the POWER5-like tournament predictor, original vs
// combination predication, all four applications.
func DefaultSweepSpec() SweepSpec {
	return SweepSpec{
		FXUs:        []int{2, 3, 4},
		BTACEntries: []int{0, 8},
		Predictors:  []string{branch.DefaultSpec()},
		Variants:    []kernels.Variant{kernels.Branchy, kernels.Combination},
		Apps:        workload.Apps(),
		Config:      DefaultConfig(),
	}
}

// normalize fills the defaults and canonicalises every axis through the
// per-coordinate rules Cell.Canonical applies (cell.go), deduplicating
// spellings of one value: the manifest spec, every plan cell and every
// job key carry one spelling, so sweeps written with different
// (equivalent) spellings produce byte-identical manifests and share
// cache entries.
func (sp SweepSpec) normalize() (SweepSpec, error) {
	def := DefaultSweepSpec()
	sp.Config = sp.Config.normalize()
	var errs [6]error
	sp.FXUs, errs[0] = canonicalAxis(sp.FXUs, def.FXUs, canonicalFXUs)
	sp.BTACEntries, errs[1] = canonicalAxis(sp.BTACEntries, def.BTACEntries, canonicalBTAC)
	sp.Predictors, errs[2] = canonicalAxis(sp.Predictors, def.Predictors, branch.CanonicalSpec)
	sp.Variants, errs[3] = canonicalAxis(sp.Variants, def.Variants, func(v kernels.Variant) (kernels.Variant, error) { return v, nil })
	sp.Apps, errs[4] = canonicalAxis(sp.Apps, def.Apps, canonicalApp)
	errs[5] = checkSeeds(sp.Config.Seeds)
	for _, err := range errs {
		if err != nil {
			return sp, fmt.Errorf("sweep: %w", err)
		}
	}
	return sp, nil
}

// canonicalAxis maps one sweep axis (def when empty) through its
// coordinate rule, keeping the first of each canonical value.
func canonicalAxis[T comparable](axis, def []T, canonical func(T) (T, error)) ([]T, error) {
	if len(axis) == 0 {
		axis = def
	}
	out := make([]T, 0, len(axis))
	seen := make(map[T]bool, len(axis))
	for _, v := range axis {
		c, err := canonical(v)
		if err != nil {
			return nil, err
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// SetupFor builds the core setup of one grid point: a predication
// variant, a fixed-point unit count, a BTAC sizing (0 disables the
// BTAC), and a direction-predictor spec ("" keeps the POWER5-like
// default).  It takes canonical coordinates (Cell.Canonical, or a
// normalized SweepSpec's axes) and is the one mapping from them to a
// cpu.Config, so a served cell and a swept cell with the same
// coordinates produce identical sched.Job keys and coalesce.
func SetupFor(v kernels.Variant, fxus, btacEntries int, predictor string) core.Setup {
	s := core.Baseline()
	s.Variant = v
	s.CPU.NumFXU = fxus
	if btacEntries > 0 {
		s.CPU.UseBTAC = true
		s.CPU.BTAC = branch.BTACConfig{Entries: btacEntries, Threshold: 1, MaxScore: 3}
	}
	s.CPU.Predictor = branch.CanonicalOrRaw(predictor)
	s.Name = fmt.Sprintf("%s + %d FXUs + BTAC %s + %s", v, fxus,
		btacLabel(btacEntries), s.CPU.Predictor)
	return s
}

func btacLabel(entries int) string {
	if entries <= 0 {
		return "off"
	}
	return strconv.Itoa(entries)
}

// Per-cell completion statuses of a SweepPoint.
const (
	StatusOK      = "ok"      // cell simulated (or cache-served) successfully
	StatusFailed  = "failed"  // cell failed after exhausting its retry budget
	StatusTimeout = "timeout" // cell exceeded the per-cell deadline on every attempt
	StatusSkipped = "skipped" // cell not evaluated (its app's baseline failed)
)

// SweepPoint is one evaluated grid cell of the manifest.  A degraded
// cell (Status != ok) keeps its identity fields and carries the error;
// its Stats/NormIPC stay zero.
type SweepPoint struct {
	App         string      `json:"app"`
	Variant     string      `json:"variant"`
	FXUs        int         `json:"fxus"`
	BTACEntries int         `json:"btac_entries"` // 0 = no BTAC
	Predictor   string      `json:"predictor"`    // canonical direction-predictor spec
	Key         string      `json:"key"`          // content hash of the cell (over its per-seed job hashes)
	Status      string      `json:"status"`       // ok|failed|timeout|skipped
	Error       string      `json:"error,omitempty"`
	Stats       KernelStats `json:"stats"`       // the PR-1 report schema, per seed + aggregate
	NormIPC     float64     `json:"norm_ipc"`    // baseline work / cycles (a speedup measure)
	Improvement float64     `json:"improvement"` // NormIPC vs the app's POWER5 baseline IPC, fractional
}

// SweepBest names the best configuration found for one application.
type SweepBest struct {
	App         string  `json:"app"`
	Variant     string  `json:"variant"`
	FXUs        int     `json:"fxus"`
	BTACEntries int     `json:"btac_entries"`
	Predictor   string  `json:"predictor"`
	NormIPC     float64 `json:"norm_ipc"`
	Improvement float64 `json:"improvement"`
}

// SweepManifest is the machine-readable outcome of a sweep.
type SweepManifest struct {
	Schema string `json:"schema"`
	Spec   struct {
		FXUs        []int    `json:"fxus"`
		BTACEntries []int    `json:"btac_entries"`
		Predictors  []string `json:"predictors"`
		Variants    []string `json:"variants"`
		Apps        []string `json:"apps"`
	} `json:"spec"`
	Config    Config       `json:"config"`
	Points    []SweepPoint `json:"points"`
	Best      []SweepBest  `json:"best"`     // per app, paper order; degraded cells never win
	Degraded  int          `json:"degraded"` // cells with Status != ok
	Scheduler sched.Stats  `json:"scheduler"`
	// Cluster records the distributed fabric's operational counters
	// when the manifest was produced by a coordinator.  Like Scheduler,
	// Profile and ElapsedMS it is operational state, stripped by every
	// determinism comparison.
	Cluster   *ClusterStats `json:"cluster,omitempty"`
	Profile   *SweepProfile `json:"profile,omitempty"` // timing; excluded from determinism comparisons
	ElapsedMS int64         `json:"elapsed_ms"`        // timing; excluded from determinism comparisons
}

// ClusterStats is the coordinator's view of one distributed sweep: how
// the fabric behaved, not what it computed.  It lives here (not in
// internal/cluster) because the manifest owns its own schema.
type ClusterStats struct {
	Workers      int    `json:"workers"`             // fleet size at start
	WorkersLost  uint64 `json:"workers_lost"`        // workers declared dead mid-run
	Cells        uint64 `json:"cells"`               // distinct content-addressed cells
	Dispatched   uint64 `json:"dispatched"`          // dispatch attempts (incl. re-dispatches)
	Completed    uint64 `json:"completed"`           // cells that returned ok
	FailedCells  uint64 `json:"failed_cells"`        // cells that exhausted the fleet
	Stolen       uint64 `json:"stolen"`              // always 0: the fleet shares one queue; kept for the schema
	Redispatched uint64 `json:"redispatched"`        // straggler cells re-sent to a second worker
	Duplicates   uint64 `json:"duplicates"`          // late results dropped by first-result-wins
	Resumed      uint64 `json:"resumed"`             // cells served by the coordinator journal
	CacheHits    uint64 `json:"cache_hits"`          // cells served without a fresh functional capture
	Batches      uint64 `json:"batches"`             // batch requests issued
	Retries      uint64 `json:"http_retries"`        // HTTP dispatches repeated after 429/503/transport errors
	BreakerTrips uint64 `json:"breaker_trips"`       // circuit-breaker open transitions across the fleet
	Quarantined  uint64 `json:"quarantined_workers"` // flapping workers removed for good
}

// SweepProfile is the sweep's "where did the time go" attribution:
// one stage breakdown per evaluated point plus the aggregate over the
// whole run.  Like ElapsedMS it is measured wall time, so it lives
// outside Points and is stripped by every determinism comparison
// (manifests stay byte-identical across worker counts, trace policies
// and cache states on everything that is science).
type SweepProfile struct {
	// Points carries one breakdown per manifest point, in manifest
	// order (the Key matches the point's Key).
	Points []PointCost `json:"points,omitempty"`
	// Aggregate sums every point's breakdown.
	Aggregate telemetry.StageCost `json:"aggregate"`
	// Stages is the aggregate by stage, descending — the attribution
	// table behind the sweep summary and `bioperf5 spans`.
	Stages []telemetry.StageNS `json:"stages,omitempty"`
	// Dominant names the stage with the most aggregate time.
	Dominant string `json:"dominant,omitempty"`
}

// PointCost pairs one evaluated cell with its stage breakdown.
type PointCost struct {
	Key  string              `json:"key"`
	Cost telemetry.StageCost `json:"cost"`
}

// DegradedPoints returns the cells that did not complete, in manifest
// order.
func (m *SweepManifest) DegradedPoints() []SweepPoint {
	var out []SweepPoint
	for _, p := range m.Points {
		if p.Status != StatusOK {
			out = append(out, p)
		}
	}
	return out
}

// WriteJSON writes the manifest to w as indented JSON.
func (m *SweepManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteJSONFile persists the manifest at path crash-safely, so a reader
// (or a resumed sweep) never observes a truncated manifest.
func (m *SweepManifest) WriteJSONFile(path string) error {
	return cas.WriteFileAtomic(path, m.WriteJSON)
}

// PlanCell is one planned unit of a sweep: an application baseline or
// a grid point — its canonical coordinates (scale, seeds and trace
// policy are the sweep's), setup and content key.  The plan fixes
// identity and order; execution — local engine or Config.Submit — only
// fills in results.
type PlanCell struct {
	Cell
	Setup core.Setup
	Key   string // content hash over the cell's per-seed job hashes
}

// SweepPlan is the deterministic expansion of a SweepSpec: the
// normalized spec, one baseline cell per application, and the full
// grid in manifest order.  RunSweep submits it and Manifest assembles
// it wherever the cells ran, so a remote sweep and a local one agree on
// every key and every byte.
type SweepPlan struct {
	Spec      SweepSpec
	Baselines []PlanCell // one per application, spec order
	Points    []PlanCell // the grid, manifest order
}

// planCell is the plan entry of (app, s) under this configuration.
func (c Config) planCell(app string, s core.Setup) PlanCell {
	return PlanCell{
		Cell: Cell{
			App: app, Variant: s.Variant.String(),
			FXUs: s.CPU.NumFXU, BTACEntries: btacEntries(s.CPU),
			Predictor: branch.CanonicalOrRaw(s.CPU.Predictor),
			Scale:     c.Scale, Seeds: c.Seeds, Trace: c.Trace,
		},
		Setup: s,
		Key:   c.cellKey(app, s),
	}
}

// PlanSweep validates and expands a sweep specification.
func PlanSweep(sp SweepSpec) (*SweepPlan, error) {
	sp, err := sp.normalize()
	if err != nil {
		return nil, err
	}
	plan := &SweepPlan{Spec: sp}
	cfg := sp.Config
	for _, app := range sp.Apps {
		plan.Baselines = append(plan.Baselines, cfg.planCell(app, core.Baseline()))
	}
	for _, app := range sp.Apps {
		for _, v := range sp.Variants {
			for _, fxus := range sp.FXUs {
				for _, entries := range sp.BTACEntries {
					for _, pred := range sp.Predictors {
						plan.Points = append(plan.Points,
							cfg.planCell(app, SetupFor(v, fxus, entries, pred)))
					}
				}
			}
		}
	}
	return plan, nil
}

// CellResult is the outcome of one planned cell, however it was
// executed.  Detail carries the per-seed reports (nil unless Status is
// ok); Cost is the cell's stage breakdown under exactly-once
// attribution — a coalesced or deduplicated cell reports zero.
type CellResult struct {
	Detail *core.Detail
	Cost   telemetry.StageCost
	Status string // StatusOK, StatusFailed or StatusTimeout
	Err    string // failure detail when Status != StatusOK
	err    error  // the local engine's error behind Err
}

// failure is the cell's error, nil when it succeeded.
func (r CellResult) failure() error {
	if r.Status == StatusOK || r.err != nil {
		return r.err
	}
	return errors.New(r.Err)
}

// Manifest assembles the sweep manifest from per-cell outcomes in plan
// order: baselines[i] answers plan.Baselines[i] and points[i] answers
// plan.Points[i].  Status mapping, skipped-app propagation, IPC
// normalization, best-per-app selection and the stage profile all live
// here.  Scheduler, Cluster and ElapsedMS are left for the caller.
func (plan *SweepPlan) Manifest(baselines, points []CellResult) *SweepManifest {
	sp := plan.Spec
	m := &SweepManifest{Schema: SchemaVersion, Config: sp.Config}
	m.Spec.FXUs = sp.FXUs
	m.Spec.BTACEntries = sp.BTACEntries
	m.Spec.Predictors = sp.Predictors
	for _, v := range sp.Variants {
		m.Spec.Variants = append(m.Spec.Variants, v.String())
	}
	m.Spec.Apps = sp.Apps

	// A failed cell degrades that cell (or, for a baseline, skips its
	// application's cells) instead of aborting the sweep: the manifest
	// reports exactly which cells are missing, and a re-run against the
	// same cache retries only those.
	profile := &SweepProfile{}
	baseWork := make(map[string]cpu.Counters, len(sp.Apps))
	baseErr := make(map[string]string, len(sp.Apps))
	for i, pc := range plan.Baselines {
		r := baselines[i]
		if r.Status != StatusOK || r.Detail == nil {
			baseErr[pc.App] = fmt.Sprintf("baseline failed: %s", r.Err)
			continue
		}
		baseWork[pc.App] = r.Detail.Aggregate.Counters
		// Baseline cells are real work too; they count toward the
		// aggregate attribution even though they are not grid points.
		profile.Aggregate.Add(r.Cost)
	}
	best := make(map[string]*SweepBest, len(sp.Apps))
	for i, pc := range plan.Points {
		r := points[i]
		p := SweepPoint{
			App:         pc.App,
			Variant:     pc.Variant,
			FXUs:        pc.FXUs,
			BTACEntries: pc.BTACEntries,
			Predictor:   pc.Predictor,
			Key:         pc.Key,
		}
		if msg, degraded := baseErr[p.App]; degraded {
			p.Status = StatusSkipped
			p.Error = msg
			m.Points = append(m.Points, p)
			m.Degraded++
			continue
		}
		if r.Status != StatusOK || r.Detail == nil {
			p.Status = r.Status
			if p.Status == "" || p.Status == StatusOK {
				p.Status = StatusFailed
			}
			p.Error = r.Err
			m.Points = append(m.Points, p)
			m.Degraded++
			continue
		}
		k, _ := kernels.ByApp(pc.App)
		p.Status = StatusOK
		profile.Points = append(profile.Points, PointCost{Key: p.Key, Cost: r.Cost})
		profile.Aggregate.Add(r.Cost)
		p.Stats = packKernelStats(k, pc.Setup, r.Detail)
		base := baseWork[p.App]
		p.NormIPC = normIPC(base, r.Detail.Aggregate.Counters)
		if ipc := base.IPC(); ipc > 0 {
			p.Improvement = (p.NormIPC - ipc) / ipc
		}
		m.Points = append(m.Points, p)
		if b := best[p.App]; b == nil || p.NormIPC > b.NormIPC {
			best[p.App] = &SweepBest{
				App: p.App, Variant: p.Variant, FXUs: p.FXUs,
				BTACEntries: p.BTACEntries, Predictor: p.Predictor,
				NormIPC: p.NormIPC, Improvement: p.Improvement,
			}
		}
	}
	for _, app := range sp.Apps {
		if b := best[app]; b != nil {
			m.Best = append(m.Best, *b)
		}
	}
	profile.Stages = profile.Aggregate.Stages()
	profile.Dominant = profile.Aggregate.Dominant()
	m.Profile = profile
	return m
}

// RunSweep evaluates the full grid plus each application's POWER5
// baseline, used to normalize IPC, through runPlan: on the local
// scheduler or on Config.Submit (a fleet).  The manifest does not depend
// on submission order, worker count or where the cells ran.
func RunSweep(sp SweepSpec) (*SweepManifest, error) {
	plan, err := PlanSweep(sp)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cfg := plan.Spec.Config
	// The whole-sweep root span: with a tracer in the context every
	// cell's spans nest under it, so the exported trace renders the
	// sweep as one tree.
	ctx, sweepSpan := telemetry.StartSpan(cfg.Context, telemetry.StageSweep)
	defer sweepSpan.End()
	results := cfg.runPlan(ctx, append(append([]PlanCell(nil), plan.Baselines...), plan.Points...))
	nb := len(plan.Baselines)
	m := plan.Manifest(results[:nb], results[nb:])
	if cfg.Submit == nil {
		m.Scheduler = cfg.engine().Stats()
	}
	m.ElapsedMS = time.Since(start).Milliseconds()
	return m, nil
}

// runPlan runs planned cells — a sweep's or the paper's — under ctx, on
// Config.Submit or the local engine, and returns their results in plan
// order whatever order they ran in.  Every cell is submitted before any
// is waited for, and the first cell of each (application, variant) is
// submitted ahead of the rest: those are the cells that capture a
// trace, and a worker handed a second cell of a trace still being
// captured would park behind the capture while replayable cells sit in
// the queue.
func (c Config) runPlan(ctx context.Context, cells []PlanCell) []CellResult {
	run := c.Submit
	if run == nil {
		run = c.submitLocal
	}
	waits := make([]func() CellResult, len(cells))
	type stream struct{ app, variant string }
	captured := make(map[stream]bool)
	var rest []int
	for i, pc := range cells {
		if s := (stream{pc.App, pc.Variant}); !captured[s] {
			captured[s] = true
			waits[i] = run(ctx, pc)
		} else {
			rest = append(rest, i)
		}
	}
	for _, i := range rest {
		waits[i] = run(ctx, cells[i])
	}
	results := make([]CellResult, len(waits))
	for i, wait := range waits {
		results[i] = wait()
	}
	return results
}

// ProfileTable renders the aggregate stage attribution: where the
// sweep's simulation time went, descending, with each stage's share.
// Nil when the manifest predates profiles or recorded no time.
func (m *SweepManifest) ProfileTable() *Table {
	if m.Profile == nil || m.Profile.Aggregate.IsZero() {
		return nil
	}
	t := &Table{
		ID:    "sweep-profile",
		Title: "Sweep stage profile: where the simulation time went",
		Note: fmt.Sprintf("summed across %d points + baselines; dominant stage: %s",
			len(m.Profile.Points), m.Profile.Dominant),
		Columns: []string{"stage", "time", "share"},
	}
	var sum int64
	for _, s := range m.Profile.Stages {
		sum += s.NS
	}
	for _, s := range m.Profile.Stages {
		if s.NS == 0 {
			continue
		}
		share := float64(s.NS) / float64(sum) * 100
		t.Rows = append(t.Rows, []string{s.Name,
			time.Duration(s.NS).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", share)})
	}
	return t
}

// Summary renders the best-configuration-per-application table plus
// one row per grid point.
func (m *SweepManifest) Summary() *Table {
	t := &Table{
		ID:    "sweep",
		Title: "Design-space sweep: best configuration per application",
		Note: fmt.Sprintf("%d points; norm. IPC is baseline work / cycles (a speedup measure)",
			len(m.Points)),
		Columns: []string{"application", "variant", "FXUs", "BTAC", "predictor", "norm. IPC", "improvement"},
	}
	for _, b := range m.Best {
		t.Rows = append(t.Rows, []string{b.App, b.Variant,
			strconv.Itoa(b.FXUs), btacLabel(b.BTACEntries), predLabel(b.Predictor),
			f2(b.NormIPC), pctDelta(1+b.Improvement, 1)})
	}
	return t
}

// Grid renders every point of the manifest as a table, grouped by
// application in manifest order.
func (m *SweepManifest) Grid() *Table {
	t := &Table{
		ID:      "sweep-grid",
		Title:   "Design-space sweep: all points",
		Columns: []string{"application", "variant", "FXUs", "BTAC", "predictor", "norm. IPC", "improvement"},
	}
	prev := ""
	for _, p := range m.Points {
		app := p.App
		if app == prev {
			app = ""
		} else {
			prev = p.App
		}
		ipc, delta := f2(p.NormIPC), pctDelta(1+p.Improvement, 1)
		if p.Status != StatusOK {
			ipc, delta = p.Status, "-"
		}
		t.Rows = append(t.Rows, []string{app, p.Variant,
			strconv.Itoa(p.FXUs), btacLabel(p.BTACEntries), predLabel(p.Predictor), ipc, delta})
	}
	return t
}

// predLabel shortens a canonical predictor spec to its kind for table
// cells ("tage:tables=4,bits=10,..." -> "tage").  The full spec stays
// in the JSON manifest; sweeps comparing two parameterizations of one
// kind should read the manifest, not the table.
func predLabel(spec string) string {
	if spec == "" {
		return "default"
	}
	kind, _, _ := strings.Cut(spec, ":")
	return kind
}
