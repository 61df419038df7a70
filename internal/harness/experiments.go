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

// The counter-driven experiments (Table I/II, Figures 3-6) all follow
// the same two-phase shape: submit every (kernel, setup) cell to the
// scheduler first, then collect the futures in table order.  All cells
// of an experiment simulate concurrently (bounded by the engine's
// worker pool), and cells shared between experiments — the baseline
// column of Table I and Figures 4-6 — are computed once per engine.

// Fig1 reproduces Figure 1: the gprof-style function-wise breakout of
// the four applications running end-to-end in pure Go.
func Fig1(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
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

// Table1 reproduces Table I: baseline hardware counters per
// application — IPC, L1D miss rate, the share of mispredictions due to
// incorrect direction, and FXU completion stalls.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:    "table1",
		Title: "Hardware counter data (POWER5 baseline, original binaries)",
		Columns: []string{"application", "IPC", "L1D miss rate",
			"% mispred. due to direction", "stalls due FXU"},
	}
	ks := kernels.All()
	cells := make([]*pending, len(ks))
	for i, k := range ks {
		cells[i] = cfg.submitCell(k.App, core.Baseline())
	}
	ctrs, err := countersOf(cells)
	if err != nil {
		return nil, err
	}
	for i, k := range ks {
		ctr := ctrs[i]
		t.Rows = append(t.Rows, []string{k.App, f2(ctr.IPC()),
			pct(ctr.L1DMissRate()), pct(ctr.DirectionShare()),
			pct(ctr.StallFXUShare())})
	}
	return t, nil
}

// Fig2 reproduces Figure 2: Clustalw's interval IPC against interval
// branch misprediction rate over the course of a run.  The windows are
// an interval observer on one cell's timing core, so the experiment
// runs under whatever trace policy the configuration carries.
func Fig2(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
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
	base := core.Baseline()
	_, err := core.Simulate(core.Request{App: "Clustalw", Variant: base.Variant, CPU: base.CPU,
		Seeds:   cfg.Seeds[:1],
		Scale:   cfg.Scale * 2, // enough rows for the phase behaviour to show
		Context: cfg.Context, Trace: cfg.Trace,
		Observer: kernels.Observer{Every: 10_000, Interval: window}})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// submitVariants schedules every kernel under every listed predication
// variant on the baseline core: cells[kernel][variant].
func submitVariants(ks []*kernels.Kernel, vs []kernels.Variant, cfg Config) [][]*pending {
	cells := make([][]*pending, len(ks))
	for i, k := range ks {
		for _, v := range vs {
			cells[i] = append(cells[i], cfg.submitCell(k.App, core.Baseline().WithVariant(v)))
		}
	}
	return cells
}

// countersOf collects cells in order, stopping at the first failure.
func countersOf(cells []*pending) ([]cpu.Counters, error) {
	out := make([]cpu.Counters, len(cells))
	for i, cl := range cells {
		var err error
		if out[i], err = cl.counters(); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// Fig3 reproduces Figure 3: IPC under hand- and compiler-inserted max
// and isel, plus the hand-max + compiler-isel combination.
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:      "fig3",
		Title:   "IPC with max and isel instructions",
		Note:    "IPC normalized to the original binary's instruction count (a speedup measure)",
		Columns: []string{"application", "variant", "IPC", "improvement"},
	}
	ks := kernels.All()
	vs := append([]kernels.Variant{kernels.Branchy}, figure3Variants()...)
	cells := submitVariants(ks, vs, cfg)
	for i, k := range ks {
		ctrs, err := countersOf(cells[i])
		if err != nil {
			return nil, err
		}
		base := ctrs[0]
		t.Rows = append(t.Rows, []string{k.App, kernels.Branchy.String(), f2(base.IPC()), "-"})
		for j, ctr := range ctrs[1:] {
			ipc := normIPC(base, ctr)
			t.Rows = append(t.Rows, []string{"", vs[j+1].String(), f2(ipc),
				pctDelta(ipc, base.IPC())})
		}
	}
	return t, nil
}

// Table2 reproduces Table II: branch statistics per application and
// predication variant.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:    "table2",
		Title: "Branch performance with predicated instructions added",
		Columns: []string{"application", "variant", "% branches/instrs",
			"branch mispredict rate", "% taken brs/branches"},
	}
	order := []kernels.Variant{
		kernels.HandISel, kernels.CompISel,
		kernels.HandMax, kernels.CompMax,
		kernels.Branchy,
	}
	ks := kernels.All()
	cells := submitVariants(ks, order, cfg)
	for i, k := range ks {
		ctrs, err := countersOf(cells[i])
		if err != nil {
			return nil, err
		}
		for j, ctr := range ctrs {
			app := k.App
			if j > 0 {
				app = ""
			}
			t.Rows = append(t.Rows, []string{app, order[j].String(),
				pct(ctr.BranchFraction()), pct(ctr.BranchMispredictRate()),
				pct(ctr.TakenFraction())})
		}
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the 8-entry BTAC added to the original
// POWER5 and to the predication-enhanced core, with the BTAC's own
// misprediction rate.
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:    "fig4",
		Title: "Effect of adding an eight-entry BTAC",
		Columns: []string{"application", "core", "IPC", "IPC +BTAC",
			"gain", "BTAC mispredict rate"},
	}
	setups := []struct {
		name string
		base core.Setup
	}{
		{"original POWER5", core.Baseline()},
		{"with predication", core.Baseline().WithVariant(kernels.Combination)},
	}
	ks := kernels.All()
	// Per kernel: the baseline (the work unit), then plain and +BTAC of
	// each setup.
	cells := make([][]*pending, len(ks))
	for i, k := range ks {
		cells[i] = append(cells[i], cfg.submitCell(k.App, core.Baseline()))
		for _, s := range setups {
			cells[i] = append(cells[i], cfg.submitCell(k.App, s.base), cfg.submitCell(k.App, s.base.WithBTAC()))
		}
	}
	for i, k := range ks {
		ctrs, err := countersOf(cells[i])
		if err != nil {
			return nil, err
		}
		baseWork := ctrs[0]
		for j, s := range setups {
			plain, btac := ctrs[1+2*j], ctrs[2+2*j]
			app := k.App
			if j > 0 {
				app = ""
			}
			p, q := normIPC(baseWork, plain), normIPC(baseWork, btac)
			t.Rows = append(t.Rows, []string{app, s.name, f2(p), f2(q),
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
	t.Note = "per-app sub-rows attribute the BTAC mispredict rate to the " +
		"hottest static branches (first seed)"
	return t, nil
}

// fig4HotBranches profiles one app under the original binary with the
// eight-entry BTAC and returns table rows for its wrongest-target
// static branches.
func fig4HotBranches(cfg Config, k *kernels.Kernel) ([][]string, error) {
	seeds := cfg.Seeds
	if len(seeds) > 1 {
		seeds = seeds[:1]
	}
	rep, err := RunBranches(Config{Scale: cfg.Scale, Seeds: seeds},
		k.App, core.Baseline().WithBTAC())
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

// Fig5 reproduces Figure 5: IPC as the number of fixed-point units
// grows from 2 to 4, for the original binaries and the combination
// predication build.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:      "fig5",
		Title:   "Effect of additional fixed-point units",
		Columns: []string{"application", "core", "2 FXU", "3 FXU", "4 FXU"},
	}
	bases := []struct {
		name string
		s    core.Setup
	}{
		{"original", core.Baseline()},
		{"combination", core.Baseline().WithVariant(kernels.Combination)},
	}
	fxus := []int{2, 3, 4}
	ks := kernels.All()
	// Per kernel: the baseline (the work unit), then every FXU count of
	// each base.
	cells := make([][]*pending, len(ks))
	for i, k := range ks {
		cells[i] = append(cells[i], cfg.submitCell(k.App, core.Baseline()))
		for _, b := range bases {
			for _, n := range fxus {
				cells[i] = append(cells[i], cfg.submitCell(k.App, b.s.WithFXUs(n)))
			}
		}
	}
	for i, k := range ks {
		ctrs, err := countersOf(cells[i])
		if err != nil {
			return nil, err
		}
		for j, b := range bases {
			app := k.App
			if j > 0 {
				app = ""
			}
			row := []string{app, b.name}
			for _, ctr := range ctrs[1+j*len(fxus):][:len(fxus)] {
				row = append(row, f2(normIPC(ctrs[0], ctr)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig6 reproduces Figure 6: stacking predication, the BTAC and four
// FXUs, with the residual — the extra gain of the combination over the
// sum of the individual deltas.
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		ID:    "fig6",
		Title: "Combined predication + BTAC + 4 FXUs",
		Note:  "residual = IPC(all) - IPC(base) - sum of individual deltas",
		Columns: []string{"application", "base IPC", "+pred", "+BTAC", "+4 FXU",
			"all", "residual", "total gain"},
	}
	ks := kernels.All()
	cells := make([][]*pending, len(ks))
	for i, k := range ks {
		for _, s := range []core.Setup{
			core.Baseline(),
			core.Baseline().WithVariant(kernels.Combination),
			core.Baseline().WithBTAC(),
			core.Baseline().WithFXUs(4),
			core.Baseline().WithVariant(kernels.Combination).WithBTAC().WithFXUs(4),
		} {
			cells[i] = append(cells[i], cfg.submitCell(k.App, s))
		}
	}
	for i, k := range ks {
		ctrs, err := countersOf(cells[i])
		if err != nil {
			return nil, err
		}
		base, pred, btac, fxu, all := ctrs[0], ctrs[1], ctrs[2], ctrs[3], ctrs[4]
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
