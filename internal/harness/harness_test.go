package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{"fig1", "table1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Render == nil {
			t.Errorf("%s: incomplete experiment", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil || e.ID != "fig4" {
		t.Errorf("ByID(fig4) = %v, %v", e, err)
	}
	if _, err := ByID("fig9"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "t",
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"col", "value"},
		Rows:    [][]string{{"a", "1"}, {"longer", "2"}},
	}
	out := tab.Render()
	for _, want := range []string{"T — demo", "a note", "col", "longer"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, note, header, rule, 2 rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Scale != 1 || len(c.Seeds) != 1 {
		t.Errorf("normalized zero config = %+v", c)
	}
}

// runReport runs one experiment on a plan of its own.
func runReport(t *testing.T, id string, cfg Config) *Report {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := RunPaper(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	return reps[0]
}

// runTable renders one experiment on a plan of its own.
func runTable(t *testing.T, id string, cfg Config) *Table {
	t.Helper()
	return runReport(t, id, cfg).Table()
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("cell (%d,%d) out of range in %s", row, col, tab.ID)
	}
	return tab.Rows[row][col]
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := runTable(t, "table1", Quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ipc := parseF(t, row[1])
		if ipc < 0.5 || ipc > 2.5 {
			t.Errorf("%s: IPC %s out of plausible range", row[0], row[1])
		}
		if miss := parsePct(t, row[2]); miss > 5 {
			t.Errorf("%s: L1D miss rate %s; Table I expects low", row[0], row[2])
		}
		if dir := parsePct(t, row[3]); dir < 95 {
			t.Errorf("%s: direction share %s; Table I expects ~100%%", row[0], row[3])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := runTable(t, "fig3", Quick())
	// 4 apps x 6 rows.
	if len(tab.Rows) != 24 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Collect improvements by app and variant.
	imp := map[string]map[string]float64{}
	app := ""
	for _, row := range tab.Rows {
		if row[0] != "" {
			app = row[0]
			continue // the "original" row
		}
		if imp[app] == nil {
			imp[app] = map[string]float64{}
		}
		imp[app][row[1]] = parsePct(t, row[3])
	}
	// Paper shapes: all variants improve every application...
	for app, m := range imp {
		for v, pc := range m {
			if pc <= 0 {
				t.Errorf("%s/%s: improvement %+.1f%% not positive", app, v, pc)
			}
		}
	}
	// ...hand beats compiler on Clustalw and Hmmer...
	for _, app := range []string{"Clustalw", "Hmmer"} {
		if imp[app]["hand max"] <= imp[app]["comp. max"] {
			t.Errorf("%s: hand max (%.1f%%) not above comp. max (%.1f%%)",
				app, imp[app]["hand max"], imp[app]["comp. max"])
		}
	}
	// ...and the compiler beats hand on Fasta and Blast.
	for _, app := range []string{"Fasta", "Blast"} {
		if imp[app]["comp. max"] <= imp[app]["hand max"] {
			t.Errorf("%s: comp. max (%.1f%%) not above hand max (%.1f%%)",
				app, imp[app]["comp. max"], imp[app]["hand max"])
		}
	}
	// max is at least as good as isel for hand insertion.
	for app, m := range imp {
		if m["hand max"] < m["hand isel"]-1 { // 1pp tolerance
			t.Errorf("%s: hand max (%.1f%%) below hand isel (%.1f%%)",
				app, m["hand max"], m["hand isel"])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := runTable(t, "table2", Quick())
	if len(tab.Rows) != 20 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Per app: the original row has the highest branch fraction.
	app := ""
	branchFrac := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if row[0] != "" {
			app = row[0]
		}
		if branchFrac[app] == nil {
			branchFrac[app] = map[string]float64{}
		}
		branchFrac[app][row[1]] = parsePct(t, row[2])
	}
	for app, m := range branchFrac {
		orig := m["original"]
		for v, f := range m {
			if v == "original" {
				continue
			}
			if f >= orig {
				t.Errorf("%s/%s: branch fraction %.1f%% not below original %.1f%%",
					app, v, f, orig)
			}
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := runTable(t, "fig4", Quick())
	// 8 setup rows (4 apps x 2 cores) plus per-app sub-rows attributing
	// the BTAC mispredict rate to hot static branches (column 2 empty).
	var setupRows, branchRows int
	for _, row := range tab.Rows {
		if row[2] == "" {
			branchRows++
			if mr := parsePct(t, row[5]); mr < 0 || mr > 100 {
				t.Errorf("branch row %q: implausible per-site BTAC wrong rate %.1f%%", row[1], mr)
			}
			continue
		}
		setupRows++
		gain := parsePct(t, row[4])
		if gain < 0 {
			t.Errorf("%s/%s: BTAC hurt (%.1f%%)", row[0], row[1], gain)
		}
		if gain > 25 {
			t.Errorf("%s/%s: BTAC gain %.1f%% implausibly large", row[0], row[1], gain)
		}
		if mr := parsePct(t, row[5]); mr > 10 {
			t.Errorf("%s/%s: BTAC mispredict rate %.1f%%; paper reports a few percent",
				row[0], row[1], mr)
		}
	}
	if setupRows != 8 {
		t.Fatalf("%d setup rows, want 8", setupRows)
	}
	if branchRows == 0 {
		t.Error("no per-static-branch attribution rows")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := runTable(t, "fig5", Quick())
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		two, three, four := parseF(t, row[2]), parseF(t, row[3]), parseF(t, row[4])
		if three < two || four < three {
			t.Errorf("%s/%s: IPC not monotone in FXUs: %.2f %.2f %.2f",
				row[0], row[1], two, three, four)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := runTable(t, "fig6", Quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	sum := 0.0
	for _, row := range tab.Rows {
		gain := parsePct(t, row[7])
		if gain <= 0 {
			t.Errorf("%s: combined gain %.1f%% not positive", row[0], gain)
		}
		sum += gain
		base, all := parseF(t, row[1]), parseF(t, row[5])
		if all <= base {
			t.Errorf("%s: all-improvements IPC %.2f not above base %.2f", row[0], all, base)
		}
	}
	if avg := sum / 4; avg < 25 {
		t.Errorf("average combined gain %.1f%%; the paper reports 64%%", avg)
	}
}

func TestFig1AndFig2Run(t *testing.T) {
	tab := runTable(t, "fig1", Quick())
	if len(tab.Rows) < 8 {
		t.Errorf("fig1 rows = %d", len(tab.Rows))
	}
	tab2 := runTable(t, "fig2", Quick())
	if len(tab2.Rows) < 3 {
		t.Errorf("fig2 rows = %d", len(tab2.Rows))
	}
}
