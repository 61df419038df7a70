// End-to-end regeneration test: the whole paper runs as one plan, every
// experiment renders and produces a valid machine-readable report whose
// stall stacks respect the cycle invariant, and every report but the
// host-timed fig1 equals the committed golden (CI runs this as its own
// step).
package bioperf5

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"bioperf5/internal/harness"
)

// goldenPaper is `bioperf5 run all -seeds 1 -json` with the fig1 element
// removed.  A change to the model or to a table's layout regenerates it
// from that command's output.
const goldenPaper = "testdata/paper_seed1.json"

func TestExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table and figure")
	}
	raw, err := os.ReadFile(goldenPaper)
	if err != nil {
		t.Fatal(err)
	}
	var golden []*harness.Report
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string]*harness.Report{}
	for _, rep := range golden {
		want[rep.ID] = rep
	}
	reps, err := harness.RunPaper(harness.Quick(), harness.Registry()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range harness.Registry() {
		rep := reps[i]
		t.Run(e.ID, func(t *testing.T) {
			if rep.ID != e.ID || len(rep.Columns) == 0 || len(rep.Rows) == 0 {
				t.Fatalf("incomplete report: %+v", rep)
			}
			if rep.Table().Render() == "" {
				t.Fatal("empty render")
			}
			got := reportJSON(t, rep)
			if !json.Valid(got) {
				t.Fatalf("invalid JSON report:\n%s", got)
			}
			for _, ks := range rep.Kernels {
				if got, want := ks.Aggregate.Stalls.Total(), ks.Aggregate.Counters.Cycles; got != want {
					t.Errorf("%s: stall stack %d != cycles %d", ks.App, got, want)
				}
			}
			if e.ID == "fig1" {
				return // host-timed: no golden
			}
			if want[e.ID] == nil {
				t.Fatalf("%s has no golden report in %s", e.ID, goldenPaper)
			}
			if g := reportJSON(t, want[e.ID]); !bytes.Equal(got, g) {
				t.Errorf("report differs from %s:\n--- got ---\n%s\n--- golden ---\n%s", goldenPaper, got, g)
			}
		})
	}
}

func reportJSON(t *testing.T, rep *harness.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
