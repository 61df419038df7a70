package workload

import (
	"strings"
	"testing"
)

func TestApps(t *testing.T) {
	want := []string{"Blast", "Clustalw", "Fasta", "Hmmer"}
	got := Apps()
	if len(got) != len(want) {
		t.Fatalf("Apps() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Apps()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := Run("Notepad", 1, 1); err == nil {
		t.Error("unknown application accepted")
	}
}

func TestAllAppsRunAndProfile(t *testing.T) {
	for _, app := range Apps() {
		res, err := Run(app, 1, 42)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.App != app {
			t.Errorf("result app = %s", res.App)
		}
		if len(res.Profile.Breakdown()) == 0 || res.Profile.Total() <= 0 {
			t.Errorf("%s: empty profile", app)
		}
		if res.Summary == "" {
			t.Errorf("%s: no summary", app)
		}
	}
}

// TestFigure1Shape checks the paper's Figure 1 qualitatively: every
// application except Blast spends more than half its time in a single
// DP function, and Blast spends its largest share in SEMI_G_ALIGN_EX.
func TestFigure1Shape(t *testing.T) {
	wantDominant := map[string]string{
		"Blast":    "SemiGappedAlignEx",
		"Clustalw": "forward_pass",
		"Fasta":    "dropgsw",
		"Hmmer":    "P7Viterbi",
	}
	for _, app := range Apps() {
		res, err := Run(app, 2, 7)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		name, share := res.DominantFunction()
		if name != wantDominant[app] {
			t.Errorf("%s: dominant function %s (%.0f%%), want %s",
				app, name, 100*share, wantDominant[app])
			for _, e := range res.Profile.Breakdown() {
				t.Logf("  %-24s %5.1f%%", e.Name, 100*e.Share)
			}
			continue
		}
		switch app {
		case "Blast":
			if share < 0.30 {
				t.Errorf("Blast: SemiGappedAlignEx share %.0f%%, paper shows >40%%", 100*share)
			}
		default:
			if share < 0.50 {
				t.Errorf("%s: %s share %.0f%%, paper shows >50%%", app, name, 100*share)
			}
		}
	}
}

func TestDeterministicSummaries(t *testing.T) {
	a, err := Run("Fasta", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("Fasta", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("same seed, different summaries: %q vs %q", a.Summary, b.Summary)
	}
	if !strings.Contains(a.Summary, "score") {
		t.Errorf("summary = %q", a.Summary)
	}
}

func TestScaleIncreasesWork(t *testing.T) {
	small, err := Run("Hmmer", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run("Hmmer", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var smallCalls, bigCalls uint64
	for _, e := range small.Profile.Breakdown() {
		if e.Name == "P7Viterbi" {
			smallCalls = e.Calls
		}
	}
	for _, e := range big.Profile.Breakdown() {
		if e.Name == "P7Viterbi" {
			bigCalls = e.Calls
		}
	}
	if bigCalls <= smallCalls {
		t.Errorf("scale 3 ran %d Viterbi calls, scale 1 ran %d", bigCalls, smallCalls)
	}
}
