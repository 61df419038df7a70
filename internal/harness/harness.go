// Package harness defines one experiment per table and figure of the
// paper's evaluation and renders their results as plain-text tables.
// The per-experiment index in DESIGN.md maps each experiment to the
// modules that implement it.
package harness

import (
	"context"
	"fmt"
	"strings"

	"bioperf5/internal/core"
	"bioperf5/internal/sched"
)

// Config scales the experiments.  Scale stretches kernel inputs; Seeds
// lists the input seeds whose counters are aggregated per data point.
type Config struct {
	Scale int     `json:"scale"`
	Seeds []int64 `json:"seeds"`

	// Engine, when set, is the scheduler experiment cells are submitted
	// to; nil uses a shared process-wide engine (GOMAXPROCS workers,
	// in-memory result cache).  Cells are pure, so the choice only
	// affects wall-clock time, never the numbers.
	Engine *sched.Engine `json:"-"`

	// Context, when set, covers every cell submitted under this
	// configuration: cancelling it fails pending cells instead of
	// simulating them (the CLI wires SIGINT/SIGTERM here, so an
	// interrupted sweep degrades gracefully and remains resumable).
	Context context.Context `json:"-"`

	// Trace is the trace policy every cell submitted under this
	// configuration carries (zero value: auto — capture each distinct
	// functional execution once, replay it for every timing variation).
	// Results are bit-identical under every policy, so the field is
	// excluded from JSON: manifests do not change when tracing is
	// toggled.
	Trace core.TracePolicy `json:"-"`

	// Submit, when set, is where RunSweep and RunPaper run a planned
	// cell instead of the local Engine: it starts the cell under ctx and
	// returns the wait for its outcome.  Both submit every cell,
	// captures first, before they wait for any (runPlan).
	// internal/cluster sets it to run a sweep on a fleet.
	Submit func(ctx context.Context, pc PlanCell) (wait func() CellResult) `json:"-"`
}

// DefaultConfig is the configuration the CLI uses.
func DefaultConfig() Config {
	return Config{Scale: 1, Seeds: []int64{1, 2, 3}}
}

// Quick returns a single-seed configuration for benchmarks and smoke
// tests.
func Quick() Config {
	return Config{Scale: 1, Seeds: []int64{1}}
}

func (c Config) normalize() Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Render lays the table out with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "(%s)\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Experiment regenerates one table or figure.  It is data plus a
// render: Setups are the cells it reads, each for every application of
// kernels.All(), and Render builds the table from their results (Fig1,
// Fig2 and Fig4's hot-branch rows also measure something of their own).
// Kernels, when set, is the per-seed detail behind the table that the
// JSON report carries.
type Experiment struct {
	ID      string
	Title   string
	Setups  []core.Setup
	Render  func(Config, Results) (*Table, error)
	Kernels func(Results) []KernelStats
}

// Registry returns all experiments in paper order.
func Registry() []*Experiment {
	return []*Experiment{
		{ID: "fig1", Title: "Function-wise breakout of Blast, Clustalw, Fasta, and Hmmer", Render: fig1},
		{ID: "table1", Title: "Hardware counter data for Blast, Clustalw, Fasta, and Hmmer",
			Setups: []core.Setup{baseline}, Render: table1, Kernels: table1Kernels},
		{ID: "fig2", Title: "Clustalw IPC and branch misprediction rate over time", Render: fig2},
		{ID: "fig3", Title: "IPC with max and isel instructions", Setups: fig3Setups, Render: fig3},
		{ID: "table2", Title: "Branch performance of applications with predicated instructions added",
			Setups: table2Setups, Render: table2},
		{ID: "fig4", Title: "Effect of adding an eight-entry BTAC", Setups: fig4Setups, Render: fig4},
		{ID: "fig5", Title: "Effect of additional fixed-point units", Setups: fig5Setups, Render: fig5},
		{ID: "fig6", Title: "Effect on IPC of combining predication, BTAC, and four FXUs",
			Setups: fig6Setups, Render: fig6},
	}
}

// aliases are short experiment names accepted by ByID ("t1" for
// "table1", "f3" for "fig3", ...).
var aliases = map[string]string{
	"t1": "table1", "t2": "table2",
	"f1": "fig1", "f2": "fig2", "f3": "fig3",
	"f4": "fig4", "f5": "fig5", "f6": "fig6",
}

// ByID finds an experiment by canonical id or short alias.
func ByID(id string) (*Experiment, error) {
	if full, ok := aliases[id]; ok {
		id = full
	}
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// Formatting helpers.

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func pctDelta(to, from float64) string {
	if from == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(to-from)/from)
}
