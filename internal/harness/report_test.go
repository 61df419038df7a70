package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTableRenderGolden pins the exact rendered output — column
// alignment, the parenthesised note line, and the rule width — so a
// formatting regression shows up as a diff, not a vague "missing
// substring".
func TestTableRenderGolden(t *testing.T) {
	tab := &Table{
		ID:      "table9",
		Title:   "Demo table",
		Note:    "unit scale",
		Columns: []string{"app", "IPC", "note"},
		Rows: [][]string{
			{"Blast", "0.97", "ok"},
			{"Clustalw", "1.20", "long cell here"},
		},
	}
	want := strings.Join([]string{
		"TABLE9 — Demo table",
		"(unit scale)",
		"app       IPC   note          ",
		"--------------------------------",
		"Blast     0.97  ok            ",
		"Clustalw  1.20  long cell here",
		"",
	}, "\n")
	if got := tab.Render(); got != want {
		t.Errorf("render mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// TestTableRenderNoNoteNoRows covers the empty edges: a note-less table
// must not emit a note line, and an empty-rows table still renders its
// header and rule.
func TestTableRenderNoNoteNoRows(t *testing.T) {
	tab := &Table{
		ID:      "f0",
		Title:   "Empty",
		Columns: []string{"a", "b"},
	}
	want := strings.Join([]string{
		"F0 — Empty",
		"a  b",
		"------",
		"",
	}, "\n")
	if got := tab.Render(); got != want {
		t.Errorf("render mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// TestByIDAliases checks the short names the CLI documents.
func TestByIDAliases(t *testing.T) {
	for alias, full := range aliases {
		e, err := ByID(alias)
		if err != nil {
			t.Errorf("ByID(%q): %v", alias, err)
			continue
		}
		if e.ID != full {
			t.Errorf("ByID(%q) = %s, want %s", alias, e.ID, full)
		}
	}
}

// TestReportJSONRoundTrip runs the smallest detailed experiment
// (table1, single seed) through RunPaper, encodes it, decodes it, and
// checks the decoded report is field-for-field identical — including
// the per-kernel stall stacks the acceptance criteria require.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := runReport(t, "t1", Quick())
	if rep.ID != "table1" || len(rep.Columns) == 0 || len(rep.Rows) == 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if len(rep.Kernels) != 4 {
		t.Fatalf("report has %d kernel stats, want 4", len(rep.Kernels))
	}
	for _, ks := range rep.Kernels {
		if len(ks.Seeds) != 1 {
			t.Errorf("%s: %d seed entries, want 1", ks.App, len(ks.Seeds))
		}
		agg := ks.Aggregate
		if agg.Stalls.Total() != agg.Counters.Cycles {
			t.Errorf("%s: stall stack %d != cycles %d", ks.App,
				agg.Stalls.Total(), agg.Counters.Cycles)
		}
		if agg.Rates.IPC == 0 || agg.Rates.CPI == 0 {
			t.Errorf("%s: zero derived rates: %+v", ks.App, agg.Rates)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON:\n%s", buf.String())
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Errorf("JSON round trip changed the report:\n got %+v\nwant %+v", back, *rep)
	}
	// The acceptance criterion asks for the stall stack in the JSON
	// output itself, not just the decoded struct.
	for _, key := range []string{"stall_stack", "mispredict_flush", "ipc", "counters"} {
		if !strings.Contains(buf.String(), `"`+key+`"`) {
			t.Errorf("JSON output missing key %q", key)
		}
	}
}

// TestRunReportWithoutDetail checks experiments without a Kernels hook
// still report (table only, no kernels array).
func TestRunReportWithoutDetail(t *testing.T) {
	rep := runReport(t, "fig5", Quick())
	if rep.Kernels != nil {
		t.Errorf("fig5 report has kernel stats: %+v", rep.Kernels)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"kernels"`) {
		t.Errorf("kernels key present despite omitempty:\n%s", buf.String())
	}
}
