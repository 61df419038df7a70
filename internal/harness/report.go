package harness

import (
	"encoding/json"
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

// BaselineStats runs every application kernel on the POWER5 baseline
// and returns the detailed stats — the data behind Table I's rows and
// the `bioperf5 stats` subcommand.
func BaselineStats(cfg Config) ([]KernelStats, error) {
	cfg = cfg.normalize()
	ks := kernels.All()
	cells := make([]*pending, len(ks))
	for i, k := range ks {
		cells[i] = cfg.submitCell(k.App, core.Baseline())
	}
	var out []KernelStats
	for i, k := range ks {
		c := cells[i].collect()
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, packKernelStats(k, core.Baseline(), c.Detail))
	}
	return out, nil
}

// SchemaVersion tags every machine-readable artifact the harness emits
// (experiment reports, sweep manifests, server responses) so API
// clients can detect drift instead of misparsing a newer encoding.
// Bump the suffix when a field changes meaning or disappears; purely
// additive fields keep the version.
const SchemaVersion = "bioperf5/v1"

// Report is the machine-readable encoding of one experiment run: the
// rendered table plus, when the experiment carries a Detail hook, the
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

// RunReport runs the experiment and packages its machine-readable form.
func RunReport(e *Experiment, cfg Config) (*Report, error) {
	cfg = cfg.normalize()
	tab, err := e.Run(cfg)
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
	if e.Detail != nil {
		ks, err := e.Detail(cfg)
		if err != nil {
			return nil, err
		}
		rep.Kernels = ks
	}
	return rep, nil
}

// WriteJSON writes the report to w as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
