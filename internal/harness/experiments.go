package harness

import (
	"fmt"
	"sort"

	"bioperf5/internal/bprof"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/workload"
)

// The paper's Section VI is one design space seen six ways: Table I/II
// and Figures 3-6 declare the setups they read for every application
// (Experiment.Setups) and render from those cells' results, which
// RunPaper computes once for all requested experiments.  Figure 1
// (host-timed), Figure 2 (an interval observer) and Figure 4's
// hot-branch sub-rows (a branch profile) are measured by their renders.

// Results are the outcomes of a paper plan's cells.  An experiment is
// rendered only once every cell it declares has succeeded.
type Results struct {
	cfg   Config
	cells map[string]CellResult // by PlanCell.Key
}

// detail is the per-seed detail of one declared cell.
func (r Results) detail(app string, s core.Setup) *core.Detail {
	return r.cells[r.cfg.cellKey(app, s)].Detail
}

// counters is the seed-summed counters of one declared cell.
func (r Results) counters(app string, s core.Setup) cpu.Counters {
	return r.detail(app, s).Aggregate.Counters
}

// The setups Table I/II and Figures 3-6 are built from.
var (
	baseline    = core.Baseline()
	combination = core.Baseline().WithVariant(kernels.Combination)
)

// variants is the baseline core under each predication variant.
func variants(vs ...kernels.Variant) []core.Setup {
	out := make([]core.Setup, len(vs))
	for i, v := range vs {
		out[i] = baseline.WithVariant(v)
	}
	return out
}

// fig1 reproduces Figure 1: the gprof-style function-wise breakout of
// the four applications running end-to-end in pure Go.
func fig1(cfg Config, _ Results) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Function-wise breakout of Blast, Clustalw, Fasta, and Hmmer",
		Note:    "synthetic class-C-like inputs; top functions by inclusive time",
		Columns: []string{"application", "function", "%time", "calls"},
	}
	for _, app := range workload.Apps() {
		res, err := workload.Run(app, cfg.Scale, cfg.Seeds[0])
		if err != nil {
			return nil, err
		}
		for i, e := range res.Profile.Breakdown() {
			if i >= 4 {
				break
			}
			name := app
			if i > 0 {
				name = ""
			}
			t.Rows = append(t.Rows, []string{name, e.Name, pct(e.Share),
				fmt.Sprintf("%d", e.Calls)})
		}
	}
	return t, nil
}

// table1 reproduces Table I: baseline hardware counters per
// application — IPC, L1D miss rate, the share of mispredictions due to
// incorrect direction, and FXU completion stalls.
func table1(_ Config, r Results) (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Hardware counter data (POWER5 baseline, original binaries)",
		Columns: []string{"application", "IPC", "L1D miss rate",
			"% mispred. due to direction", "stalls due FXU"},
	}
	for _, k := range kernels.All() {
		ctr := r.counters(k.App, baseline)
		t.Rows = append(t.Rows, []string{k.App, f2(ctr.IPC()),
			pct(ctr.L1DMissRate()), pct(ctr.DirectionShare()),
			pct(ctr.StallFXUShare())})
	}
	return t, nil
}

// table1Kernels is the per-seed detail behind Table I's rows, the
// kernels array of its JSON report.
func table1Kernels(r Results) []KernelStats {
	var out []KernelStats
	for _, k := range kernels.All() {
		out = append(out, packKernelStats(k, baseline, r.detail(k.App, baseline)))
	}
	return out
}

// fig2 reproduces Figure 2: Clustalw's interval IPC against interval
// branch misprediction rate over the course of a run.  The windows are
// an interval observer on one cell's timing core, so the experiment
// runs under whatever trace policy the configuration carries.
func fig2(cfg Config, _ Results) (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Clustalw IPC and branch misprediction rate per 10k-instruction interval",
		Note:    "the series move inversely: mispredictions limit IPC (Section III)",
		Columns: []string{"instructions", "IPC", "branch mispredict rate"},
	}
	var prev cpu.Counters
	window := func(cur cpu.Counters) {
		win := cur.Sub(prev)
		prev = cur
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", cur.Instructions),
			f2(win.IPC()), pct(win.BranchMispredictRate())})
	}
	_, err := core.Simulate(core.Request{App: "Clustalw", Variant: baseline.Variant, CPU: baseline.CPU,
		Seeds:   cfg.Seeds[:1],
		Scale:   cfg.Scale * 2, // enough rows for the phase behaviour to show
		Context: cfg.Context, Trace: cfg.Trace,
		Observer: kernels.Observer{Every: 10_000, Interval: window}})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// normIPC is the performance metric of Figures 3-6: instructions of the
// original binary divided by the cycles a configuration needs for the
// same work.  Comparing raw per-binary IPCs would reward variants that
// merely execute more instructions (isel's extra compares); normalizing
// to one work unit makes the ratio a true speedup, which is how the
// paper's improvement percentages behave.
func normIPC(baseWork cpu.Counters, ctr cpu.Counters) float64 {
	if ctr.Cycles == 0 {
		return 0
	}
	return float64(baseWork.Instructions) / float64(ctr.Cycles)
}

// fig3Setups: the original binary, then the predication strategies of
// Figure 3.
var fig3Setups = variants(kernels.Branchy, kernels.HandISel, kernels.CompISel,
	kernels.HandMax, kernels.CompMax, kernels.Combination)

// fig3 reproduces Figure 3: IPC under hand- and compiler-inserted max
// and isel, plus the hand-max + compiler-isel combination.
func fig3(_ Config, r Results) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "IPC with max and isel instructions",
		Note:    "IPC normalized to the original binary's instruction count (a speedup measure)",
		Columns: []string{"application", "variant", "IPC", "improvement"},
	}
	for _, k := range kernels.All() {
		base := r.counters(k.App, baseline)
		t.Rows = append(t.Rows, []string{k.App, kernels.Branchy.String(), f2(base.IPC()), "-"})
		for _, s := range fig3Setups[1:] {
			ipc := normIPC(base, r.counters(k.App, s))
			t.Rows = append(t.Rows, []string{"", s.Variant.String(), f2(ipc),
				pctDelta(ipc, base.IPC())})
		}
	}
	return t, nil
}

// table2Setups are Table II's rows per application, in table order.
var table2Setups = variants(kernels.HandISel, kernels.CompISel,
	kernels.HandMax, kernels.CompMax, kernels.Branchy)

// table2 reproduces Table II: branch statistics per application and
// predication variant.
func table2(_ Config, r Results) (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "Branch performance with predicated instructions added",
		Columns: []string{"application", "variant", "% branches/instrs",
			"branch mispredict rate", "% taken brs/branches"},
	}
	for _, k := range kernels.All() {
		for j, s := range table2Setups {
			ctr := r.counters(k.App, s)
			app := k.App
			if j > 0 {
				app = ""
			}
			t.Rows = append(t.Rows, []string{app, s.Variant.String(),
				pct(ctr.BranchFraction()), pct(ctr.BranchMispredictRate()),
				pct(ctr.TakenFraction())})
		}
	}
	return t, nil
}

// named is a row label and the core setup behind it.
type named struct {
	name string
	s    core.Setup
}

// fig4Cores are Figure 4's two cores, each read plain and with the BTAC.
var fig4Cores = []named{{"original POWER5", baseline}, {"with predication", combination}}

// fig4Setups: the baseline (the work unit), then plain and +BTAC of
// each core.
var fig4Setups = []core.Setup{baseline, baseline.WithBTAC(), combination, combination.WithBTAC()}

// fig4 reproduces Figure 4: the 8-entry BTAC added to the original
// POWER5 and to the predication-enhanced core, with the BTAC's own
// misprediction rate.
func fig4(cfg Config, r Results) (*Table, error) {
	t := &Table{
		ID:    "fig4",
		Title: "Effect of adding an eight-entry BTAC",
		Columns: []string{"application", "core", "IPC", "IPC +BTAC",
			"gain", "BTAC mispredict rate"},
		Note: "per-app sub-rows attribute the BTAC mispredict rate to the " +
			"hottest static branches (first seed)",
	}
	for _, k := range kernels.All() {
		baseWork := r.counters(k.App, baseline)
		for j, c := range fig4Cores {
			plain, btac := r.counters(k.App, c.s), r.counters(k.App, c.s.WithBTAC())
			app := k.App
			if j > 0 {
				app = ""
			}
			p, q := normIPC(baseWork, plain), normIPC(baseWork, btac)
			t.Rows = append(t.Rows, []string{app, c.name, f2(p), f2(q),
				pctDelta(q, p), pct(btac.BTACMispredictRate())})
		}
		// Per-static-branch attribution of the aggregate BTAC mispredict
		// rate: the hottest wrong-target sites of the original binary
		// with the BTAC on, profiled on the first seed.
		hot, err := fig4HotBranches(cfg, k)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, hot...)
	}
	return t, nil
}

// fig4HotBranches profiles one app under the original binary with the
// eight-entry BTAC and returns table rows for its wrongest-target
// static branches.
func fig4HotBranches(cfg Config, k *kernels.Kernel) ([][]string, error) {
	cfg.Seeds = cfg.Seeds[:1]
	rep, err := RunBranches(cfg, k.App, baseline.WithBTAC())
	if err != nil {
		return nil, err
	}
	sites := make([]bprof.Branch, 0, len(rep.Branches))
	for _, b := range rep.Branches {
		if b.BTACPredicts > 0 {
			sites = append(sites, b)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].BTACWrong != sites[j].BTACWrong {
			return sites[i].BTACWrong > sites[j].BTACWrong
		}
		if sites[i].BTACPredicts != sites[j].BTACPredicts {
			return sites[i].BTACPredicts > sites[j].BTACPredicts
		}
		return sites[i].PC < sites[j].PC
	})
	if len(sites) > 2 {
		sites = sites[:2]
	}
	var rows [][]string
	for _, b := range sites {
		rows = append(rows, []string{
			"", fmt.Sprintf("  pc %d (%s)", b.PC, b.Class),
			"", "", "", pct(b.BTACWrongRate()),
		})
	}
	return rows, nil
}

// fig5Cores and fig5FXUs span Figure 5: each core at every FXU count.
var (
	fig5Cores = []named{{"original", baseline}, {"combination", combination}}
	fig5FXUs  = []int{2, 3, 4}
)

// fig5Setups: the baseline (the work unit), then every FXU count of
// each core.
var fig5Setups = func() []core.Setup {
	out := []core.Setup{baseline}
	for _, c := range fig5Cores {
		for _, n := range fig5FXUs {
			out = append(out, c.s.WithFXUs(n))
		}
	}
	return out
}()

// fig5 reproduces Figure 5: IPC as the number of fixed-point units
// grows from 2 to 4, for the original binaries and the combination
// predication build.
func fig5(_ Config, r Results) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Effect of additional fixed-point units",
		Columns: []string{"application", "core", "2 FXU", "3 FXU", "4 FXU"},
	}
	for _, k := range kernels.All() {
		baseWork := r.counters(k.App, baseline)
		for j, c := range fig5Cores {
			app := k.App
			if j > 0 {
				app = ""
			}
			row := []string{app, c.name}
			for _, n := range fig5FXUs {
				row = append(row, f2(normIPC(baseWork, r.counters(k.App, c.s.WithFXUs(n)))))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// fig6Setups: the baseline, each improvement alone, then all three.
var fig6Setups = []core.Setup{
	baseline,
	combination,
	baseline.WithBTAC(),
	baseline.WithFXUs(4),
	combination.WithBTAC().WithFXUs(4),
}

// fig6 reproduces Figure 6: stacking predication, the BTAC and four
// FXUs, with the residual — the extra gain of the combination over the
// sum of the individual deltas.
func fig6(_ Config, r Results) (*Table, error) {
	t := &Table{
		ID:    "fig6",
		Title: "Combined predication + BTAC + 4 FXUs",
		Note:  "residual = IPC(all) - IPC(base) - sum of individual deltas",
		Columns: []string{"application", "base IPC", "+pred", "+BTAC", "+4 FXU",
			"all", "residual", "total gain"},
	}
	for _, k := range kernels.All() {
		ctr := func(i int) cpu.Counters { return r.counters(k.App, fig6Setups[i]) }
		base, pred, btac, fxu, all := ctr(0), ctr(1), ctr(2), ctr(3), ctr(4)
		b := base.IPC()
		dPred := normIPC(base, pred) - b
		dBTAC := normIPC(base, btac) - b
		dFXU := normIPC(base, fxu) - b
		allIPC := normIPC(base, all)
		residual := allIPC - b - dPred - dBTAC - dFXU
		t.Rows = append(t.Rows, []string{k.App, f2(b),
			fmt.Sprintf("%+.2f", dPred), fmt.Sprintf("%+.2f", dBTAC),
			fmt.Sprintf("%+.2f", dFXU), f2(allIPC),
			fmt.Sprintf("%+.2f", residual), pctDelta(allIPC, b)})
	}
	return t, nil
}
