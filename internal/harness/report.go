package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

// Rates are the derived metrics of one counter set — every ratio the
// paper's tables print, precomputed so JSON consumers don't re-derive
// them (and can't re-derive them differently).
type Rates struct {
	IPC                  float64 `json:"ipc"`
	CPI                  float64 `json:"cpi"`
	L1DMissRate          float64 `json:"l1d_miss_rate"`
	BranchMispredictRate float64 `json:"branch_mispredict_rate"`
	DirectionShare       float64 `json:"direction_share"`
	BranchFraction       float64 `json:"branch_fraction"`
	TakenFraction        float64 `json:"taken_fraction"`
	BTACMispredictRate   float64 `json:"btac_mispredict_rate"`
	StallFXUShare        float64 `json:"stall_fxu_share"`
}

// RatesOf derives all rates from one counter set.
func RatesOf(c cpu.Counters) Rates {
	r := Rates{
		IPC:                  c.IPC(),
		L1DMissRate:          c.L1DMissRate(),
		BranchMispredictRate: c.BranchMispredictRate(),
		DirectionShare:       c.DirectionShare(),
		BranchFraction:       c.BranchFraction(),
		TakenFraction:        c.TakenFraction(),
		BTACMispredictRate:   c.BTACMispredictRate(),
		StallFXUShare:        c.StallFXUShare(),
	}
	if c.Instructions > 0 {
		r.CPI = float64(c.Cycles) / float64(c.Instructions)
	}
	return r
}

// SeedStats is one seed's counters, derived rates and stall stack.
type SeedStats struct {
	Seed     int64          `json:"seed"`
	Counters cpu.Counters   `json:"counters"`
	Rates    Rates          `json:"rates"`
	Stalls   cpu.StallStack `json:"stall_stack"`
}

// KernelStats is the machine-readable outcome of one kernel under one
// setup: per-seed stats plus the aggregate.
type KernelStats struct {
	App       string      `json:"app"`
	Kernel    string      `json:"kernel"`
	Setup     string      `json:"setup"`
	Variant   string      `json:"variant"`
	Seeds     []SeedStats `json:"seeds"`
	Aggregate SeedStats   `json:"aggregate"`
}

// packKernelStats shapes a collected cell detail into the JSON-report
// form.
func packKernelStats(k *kernels.Kernel, s core.Setup, det *core.Detail) KernelStats {
	ks := KernelStats{
		App:     k.App,
		Kernel:  k.Name,
		Setup:   s.Name,
		Variant: s.Variant.String(),
		Aggregate: SeedStats{
			Seed:     -1,
			Counters: det.Aggregate.Counters,
			Rates:    RatesOf(det.Aggregate.Counters),
			Stalls:   det.Aggregate.Stalls,
		},
	}
	for _, sr := range det.Seeds {
		ks.Seeds = append(ks.Seeds, SeedStats{
			Seed:     sr.Seed,
			Counters: sr.Counters,
			Rates:    RatesOf(sr.Counters),
			Stalls:   sr.Stalls,
		})
	}
	return ks
}

// Detail is the inverse of packKernelStats: the engine-side per-seed
// detail behind wire stats — how the coordinator folds a worker's
// answer (or a journal record) back into the plan.  Rates are derived
// and recomputed by the manifest assembly, so only counters and stall
// stacks need to survive the round trip.
func (ks KernelStats) Detail() *core.Detail {
	det := &core.Detail{
		Aggregate: cpu.Report{Counters: ks.Aggregate.Counters, Stalls: ks.Aggregate.Stalls},
	}
	for _, s := range ks.Seeds {
		det.Seeds = append(det.Seeds, core.SeedReport{
			Seed: s.Seed, Counters: s.Counters, Stalls: s.Stalls,
		})
	}
	return det
}

// SchemaVersion tags every machine-readable artifact the harness emits
// (experiment reports, sweep manifests, server responses) so API
// clients can detect drift instead of misparsing a newer encoding.
// Bump the suffix when a field changes meaning or disappears; purely
// additive fields keep the version.
const SchemaVersion = "bioperf5/v1"

// Report is the machine-readable encoding of one experiment run: the
// rendered table plus, when the experiment carries a Kernels hook, the
// per-seed counters, derived rates and CPI stall stacks behind it.
type Report struct {
	Schema  string        `json:"schema"`
	ID      string        `json:"id"`
	Title   string        `json:"title"`
	Note    string        `json:"note,omitempty"`
	Config  Config        `json:"config"`
	Columns []string      `json:"columns"`
	Rows    [][]string    `json:"rows"`
	Kernels []KernelStats `json:"kernels,omitempty"`
}

// RunPaper runs experiments as one plan and returns their reports in
// the order given.  The cells the experiments declare are unioned,
// deduplicated by key, and run once through runPlan — the sweep's
// driver, so Config.Submit and capture-first ordering apply — and each
// experiment is then rendered from the results.  An experiment fails
// when a cell it declares failed or its render does: RunPaper returns
// the reports before it and an error naming it.  The CLI's `run` and
// the server's GET /v1/experiments/{id} both go through here.
func RunPaper(cfg Config, exps ...*Experiment) ([]*Report, error) {
	cfg = cfg.normalize()
	res := Results{cfg: cfg, cells: map[string]CellResult{}}
	planned := map[string]bool{}
	var cells []PlanCell
	for _, e := range exps {
		for _, k := range kernels.All() {
			for _, s := range e.Setups {
				if pc := cfg.planCell(k.App, s); !planned[pc.Key] {
					planned[pc.Key] = true
					cells = append(cells, pc)
				}
			}
		}
	}
	for i, r := range cfg.runPlan(cfg.Context, cells) {
		res.cells[cells[i].Key] = r
	}
	var reps []*Report
	for _, e := range exps {
		rep, err := e.report(cfg, res)
		if err != nil {
			return reps, fmt.Errorf("%s: %w", e.ID, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// report renders one experiment from the plan's results.
func (e *Experiment) report(cfg Config, res Results) (*Report, error) {
	for _, k := range kernels.All() {
		for _, s := range e.Setups {
			if err := res.cells[cfg.cellKey(k.App, s)].failure(); err != nil {
				return nil, err
			}
		}
	}
	tab, err := e.Render(cfg, res)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:  SchemaVersion,
		ID:      tab.ID,
		Title:   tab.Title,
		Note:    tab.Note,
		Config:  cfg,
		Columns: tab.Columns,
		Rows:    tab.Rows,
	}
	if e.Kernels != nil {
		rep.Kernels = e.Kernels(res)
	}
	return rep, nil
}

// Table is the report's rendered table.
func (r *Report) Table() *Table {
	return &Table{ID: r.ID, Title: r.Title, Note: r.Note, Columns: r.Columns, Rows: r.Rows}
}

// WriteJSON writes the report to w as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
