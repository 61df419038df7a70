package harness

import (
	"fmt"
	"strconv"

	"bioperf5/internal/bprof"
	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

// BranchReport is the per-static-branch predictability profile of one
// (application, setup) cell: every conditional-branch site the run
// touched, with its execution/mispredict counts, BTAC attribution and
// taxonomy class, plus the machine-wide totals the per-site counts sum
// to (the attribution invariant RunBranches enforces).
type BranchReport struct {
	Schema      string  `json:"schema"`
	App         string  `json:"app"`
	Variant     string  `json:"variant"`
	FXUs        int     `json:"fxus"`
	BTACEntries int     `json:"btac_entries"`
	Predictor   string  `json:"predictor"`
	Scale       int     `json:"scale"`
	Seeds       []int64 `json:"seeds"`

	// Machine-wide aggregates across all seeds, straight from the model
	// counters the per-site rows are checked against.
	CondBranches   uint64  `json:"cond_branches"`
	DirMispredicts uint64  `json:"dir_mispredicts"`
	TgtMispredicts uint64  `json:"tgt_mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"` // direction misses / cond branches

	// Classes counts profiled sites per taxonomy bucket.
	Classes map[string]int `json:"classes"`

	// Branches lists every profiled site, hottest (most direction
	// mispredicts) first.
	Branches []bprof.Branch `json:"branches"`
}

// RunBranches profiles one cell per-static-branch: it replays every
// seed's trace (capturing it on first use) with a bprof profiler
// attached to the timing core, merges the per-seed profiles, and
// cross-checks the attribution invariant — the
// per-site counts must sum exactly to the model's aggregate branch
// counters.  Profiling observes without perturbing, so the counters in
// the report equal what the cached/sweep paths produce for the same
// cell.
func RunBranches(cfg Config, app string, setup core.Setup) (*BranchReport, error) {
	cfg = cfg.normalize()
	k, err := kernels.ByApp(app)
	if err != nil {
		return nil, err
	}
	prof := bprof.New()
	resp, err := core.Simulate(core.Request{App: k.App, Variant: setup.Variant, Seeds: cfg.Seeds,
		Scale: cfg.Scale, CPU: setup.CPU, Observer: kernels.Observer{Branches: prof}})
	if err != nil {
		return nil, err
	}
	agg := resp.Aggregate.Counters
	exec, miss, wrong := prof.Totals()
	if exec != agg.CondBranches || miss != agg.DirMispredicts || wrong != agg.TgtMispredicts {
		return nil, fmt.Errorf(
			"harness: branch profile does not attribute the aggregate counters: "+
				"profiled %d/%d/%d (executed/mispredicts/wrong targets), counters %d/%d/%d",
			exec, miss, wrong, agg.CondBranches, agg.DirMispredicts, agg.TgtMispredicts)
	}
	rep := &BranchReport{
		Schema:         SchemaVersion,
		App:            k.App,
		Variant:        setup.Variant.String(),
		FXUs:           setup.CPU.NumFXU,
		BTACEntries:    btacEntries(setup.CPU),
		Predictor:      branch.CanonicalOrRaw(setup.CPU.Predictor),
		Scale:          cfg.Scale,
		Seeds:          cfg.Seeds,
		CondBranches:   agg.CondBranches,
		DirMispredicts: agg.DirMispredicts,
		TgtMispredicts: agg.TgtMispredicts,
		Classes:        map[string]int{},
		Branches:       prof.Branches(),
	}
	if agg.CondBranches > 0 {
		rep.MispredictRate = float64(agg.DirMispredicts) / float64(agg.CondBranches)
	}
	for _, b := range rep.Branches {
		rep.Classes[string(b.Class)]++
	}
	return rep, nil
}

// btacEntries reads the effective BTAC sizing out of a config.
func btacEntries(cfg cpu.Config) int {
	if !cfg.UseBTAC {
		return 0
	}
	return cfg.BTAC.Entries
}

// Table renders the report as the `bioperf5 branches` text output.
func (r *BranchReport) Table() *Table {
	t := &Table{
		ID:    "branches",
		Title: fmt.Sprintf("Per-static-branch predictability of %s (%s)", r.App, r.Variant),
		Note: fmt.Sprintf("predictor %s, %d FXUs, BTAC %s; %d sites, %d conditional branches, "+
			"%.1f%% mispredicted", r.Predictor, r.FXUs, btacLabel(r.BTACEntries),
			len(r.Branches), r.CondBranches, 100*r.MispredictRate),
		Columns: []string{"PC", "class", "executed", "taken%", "mispredicts", "miss%", "BTAC wrong%"},
	}
	for _, b := range r.Branches {
		wrong := "n/a"
		if b.BTACPredicts > 0 {
			wrong = pct(b.BTACWrongRate())
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(b.PC),
			string(b.Class),
			strconv.FormatUint(b.Executed, 10),
			pct(b.TakenRate()),
			strconv.FormatUint(b.Mispredicts, 10),
			pct(b.MispredictRate()),
			wrong,
		})
	}
	return t
}
