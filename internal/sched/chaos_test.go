// Chaos suite: a real sweep under randomized (but seeded) injected
// faults must converge to the exact manifest a fault-free run
// produces, and a follow-up run over the same cache directory must
// resume rather than recompute.  It lives in package sched_test so it
// can drive the harness on top of the engine.
package sched_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"bioperf5/internal/fault"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
)

// chaosSpec is the two-app slice of the design space the suite sweeps.
func chaosSpec(eng *sched.Engine) harness.SweepSpec {
	return harness.SweepSpec{
		FXUs:        []int{2, 4},
		BTACEntries: []int{0, 8},
		Variants:    []kernels.Variant{kernels.Branchy},
		Apps:        []string{"Clustalw", "Fasta"},
		Config:      harness.Config{Scale: 1, Seeds: []int64{1}, Engine: eng},
	}
}

// canonical serializes a manifest with its environment fields zeroed:
// elapsed time and the whole scheduler stats block (retry and fault
// counters necessarily differ between a chaotic and a clean run; the
// science — points, stats, best — must not).
func canonical(t *testing.T, m *harness.SweepManifest) []byte {
	t.Helper()
	clone := *m
	clone.ElapsedMS = 0
	clone.Scheduler = sched.Stats{}
	clone.Profile = nil
	b, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestChaosSweepMatchesFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	// Fault-free reference.
	clean := sched.New(sched.Options{Workers: 2})
	want, err := harness.RunSweep(chaosSpec(clean))
	clean.Close()
	if err != nil {
		t.Fatalf("fault-free sweep: %v", err)
	}

	// Chaotic run: every fault kind armed, one injection per (site,
	// cell) budgeted, so a retry budget of 3 always reaches a clean
	// attempt.  The injected hang outlasts the cell deadline, so it is
	// the watchdog that recovers it.
	dir := t.TempDir()
	plan, err := fault.Parse("seed=42,panic=0.25,error=0.25,hang=0.15,cancel=0.25," +
		"corrupt=0.5,tracecorrupt=0.5,delay=30s,times=1")
	if err != nil {
		t.Fatal(err)
	}
	// The deadline is generous so real cells never trip it, even under
	// the race detector; only the injected hangs (which sleep, not
	// spin) do.
	chaotic := sched.New(sched.Options{
		Workers: 2, CacheDir: dir,
		Retries:     3,
		CellTimeout: 5 * time.Second,
		Injector:    plan,
	})
	got, err := harness.RunSweep(chaosSpec(chaotic))
	st := chaotic.Stats()
	traceFaults := chaotic.Registry().Counter("trace.faults.injected").Value()
	chaotic.Close()
	if err != nil {
		t.Fatalf("chaotic sweep: %v", err)
	}
	if st.Injected == 0 {
		t.Fatal("fault plan injected nothing; the chaos run proved nothing")
	}
	if traceFaults == 0 {
		t.Error("the SiteTrace rate tore no trace-store writes; the trace heal path went unexercised")
	}
	if st.Retries == 0 {
		t.Error("injected faults caused no retries")
	}
	if got.Degraded != 0 {
		t.Errorf("degraded cells under chaos: %d\n%+v", got.Degraded, got.DegradedPoints())
	}
	if w, g := canonical(t, want), canonical(t, got); !bytes.Equal(w, g) {
		t.Errorf("chaotic manifest diverges from fault-free run:\n--- clean ---\n%s\n--- chaos ---\n%s", w, g)
	}

	// Resume: a fresh engine over the same cache re-simulates only what
	// the chaos run corrupted on disk; every other cell it wrote is a
	// disk hit.
	resumed := sched.New(sched.Options{Workers: 2, CacheDir: dir})
	again, err := harness.RunSweep(chaosSpec(resumed))
	rst := resumed.Stats()
	resumed.Close()
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if w, g := canonical(t, want), canonical(t, again); !bytes.Equal(w, g) {
		t.Error("resumed manifest diverges from fault-free run")
	}
	if rst.Computed != rst.DiskCorrupt {
		t.Errorf("resume recomputed %d cells but only %d were corrupt", rst.Computed, rst.DiskCorrupt)
	}
	if total := rst.DiskHits + rst.DiskCorrupt; total != st.DiskWrites {
		t.Errorf("disk hits %d + corrupt %d != %d cells the chaos run wrote", rst.DiskHits, rst.DiskCorrupt, st.DiskWrites)
	}
}
