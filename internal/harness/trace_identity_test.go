package harness

import (
	"bytes"
	"testing"

	"bioperf5/internal/core"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

// TestSweepByteIdenticalAcrossTracePolicies is the acceptance gate for
// the trace subsystem at the harness layer: the same sweep with tracing
// off, with tracing on (cold store), and against a pre-warmed trace
// store must produce byte-identical JSON manifests, at 1 worker and at
// 8.  Tracing is an execution strategy; it must never show up in the
// science.
func TestSweepByteIdenticalAcrossTracePolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	warm := trace.NewStore(trace.StoreOptions{})
	for _, workers := range []int{1, 8} {
		runs := []struct {
			name   string
			policy core.TracePolicy
			store  *trace.Store
		}{
			{"off", core.TraceOff, nil},
			{"auto-cold", core.TraceAuto, nil},
			{"auto-warm", core.TraceAuto, warm}, // warmed by the previous worker pass
			{"auto-warm-again", core.TraceAuto, warm},
		}
		var manifests [][]byte
		for _, r := range runs {
			eng := sched.New(sched.Options{Workers: workers, Traces: r.store})
			spec := smallSweep(eng)
			spec.Config.Trace = r.policy
			m, err := RunSweep(spec)
			eng.Close()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.name, err)
			}
			manifests = append(manifests, manifestJSON(t, m))
		}
		for i := 1; i < len(manifests); i++ {
			if !bytes.Equal(manifests[0], manifests[i]) {
				t.Errorf("workers=%d: %s manifest diverges from off:\n--- off ---\n%s\n--- %s ---\n%s",
					workers, runs[i].name, manifests[0], runs[i].name, manifests[i])
			}
		}
	}
	// The warm store really was reused: captures happened on the first
	// pass only (2 apps x 1 seed), every later pass replayed.
	if st := warm.Stats(); st.Captures != 2 || st.MemoryHits == 0 {
		t.Errorf("warm store stats = %+v, want 2 captures and nonzero hits", st)
	}
}

// TestExperimentByteIdenticalAcrossTracePolicies covers the `run -json`
// surface: a tier-1 experiment report must not change when tracing is
// toggled.
func TestExperimentByteIdenticalAcrossTracePolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for _, policy := range []core.TracePolicy{core.TraceOff, core.TraceAuto, core.TraceAuto} {
		eng := sched.New(sched.Options{Workers: 4})
		reps, err := RunPaper(Config{Scale: 1, Seeds: []int64{1}, Engine: eng, Trace: policy}, e)
		eng.Close()
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var buf bytes.Buffer
		if err := reps[0].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Errorf("report %d diverges from the traced-off report", i)
		}
	}
}

// TestCellStatsReportsTraceHits pins the API-facing hit semantics: the
// first request for a cell captures, a repeat of the same functional
// execution under a different timing configuration replays.
func TestCellStatsReportsTraceHits(t *testing.T) {
	eng := sched.New(sched.Options{Workers: 2})
	defer eng.Close()
	cfg := Config{Scale: 1, Seeds: []int64{1}, Engine: eng}
	cold, err := CellStats(cfg, "Fasta", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if cold.TraceHit {
		t.Error("cold cell reported a trace hit")
	}
	// Different timing configuration, same functional execution.
	warm, err := CellStats(cfg, "Fasta", core.Baseline().WithBTAC())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.TraceHit {
		t.Error("timing variation of a captured cell did not replay")
	}
	if cold.Key == warm.Key {
		t.Error("different timing configurations share a cell key")
	}
	if cold.Stats.Aggregate.Counters.Instructions != warm.Stats.Aggregate.Counters.Instructions {
		t.Error("timing variation changed the instruction count")
	}
	// Tracing off: never a hit, same numbers.
	off := cfg
	off.Trace = core.TraceOff
	offOut, err := CellStats(off, "Fasta", core.Baseline().WithFXUs(3))
	if err != nil {
		t.Fatal(err)
	}
	if offOut.TraceHit {
		t.Error("off-policy cell reported a trace hit")
	}
}
