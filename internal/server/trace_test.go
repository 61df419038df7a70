package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"bioperf5/internal/core"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

// TestCellTraceHitSemantics: the first request for a cell captures its
// trace ("trace_hit": false), a second request differing only in timing
// configuration replays it ("trace_hit": true) — and the numbers agree.
func TestCellTraceHitSemantics(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 2}, Options{})
	w := postCell(s, `{"app":"Fasta","seeds":[1]}`, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var cold CellResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if cold.TraceHit {
		t.Error("cold cell reported trace_hit")
	}
	w = postCell(s, `{"app":"Fasta","btac_entries":8,"fxus":4,"seeds":[1]}`, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var warm CellResponse
	if err := json.Unmarshal(w.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.TraceHit {
		t.Error("timing variation of a captured cell did not report trace_hit")
	}
	if cold.Stats.Aggregate.Counters.Instructions != warm.Stats.Aggregate.Counters.Instructions {
		t.Error("timing variation changed the instruction count")
	}
}

// TestCellTracePolicyField: explicit per-request policies are honoured
// ("off" bypasses the store) and anything but auto or off — the retired
// "capture" and "replay" included — is a 400, not a silent default.
func TestCellTracePolicyField(t *testing.T) {
	s, eng := newTestServer(t, sched.Options{Workers: 1}, Options{})
	w := postCell(s, `{"app":"Hmmer","seeds":[1],"trace":"off"}`, "")
	if w.Code != http.StatusOK {
		t.Fatalf("trace=off: status = %d, body %s", w.Code, w.Body)
	}
	var resp CellResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceHit {
		t.Error("off-policy cell reported trace_hit")
	}
	if st := eng.TraceStore().Stats(); st.Captures != 0 {
		t.Errorf("off-policy request captured a trace: %+v", st)
	}

	for _, policy := range []string{"always", "capture", "replay"} {
		w = postCell(s, `{"app":"Hmmer","seeds":[1],"trace":"`+policy+`"}`, "")
		if w.Code != http.StatusBadRequest {
			t.Errorf("policy %q: status = %d, want 400 (body %s)", policy, w.Code, w.Body)
		}
	}
}

// TestCellNumbersIdenticalAcrossPolicies is the serving-layer identity
// gate: the same cell with tracing off and on returns byte-identical
// stats.  Each request gets a fresh server, so none is a memo hit; the
// traced ones share a trace store, so the second replays the first's
// capture.
func TestCellNumbersIdenticalAcrossPolicies(t *testing.T) {
	traces := trace.NewStore(trace.StoreOptions{})
	var bodies [][]byte
	for _, req := range []string{
		`{"app":"Clustalw","btac_entries":8,"seeds":[1,2],"trace":"off"}`,
		`{"app":"Clustalw","btac_entries":8,"seeds":[1,2]}`,
		`{"app":"Clustalw","btac_entries":8,"seeds":[1,2]}`, // warm replay
	} {
		s, eng := newTestServer(t, sched.Options{Workers: 1, Traces: traces}, Options{})
		w := postCell(s, req, "")
		if st := eng.Stats(); st.Computed != 2 {
			t.Errorf("%s: engine computed %d seeds, want 2", req, st.Computed)
		}
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		var resp CellResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp.Stats)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	for i := 1; i < len(bodies); i++ {
		if string(bodies[0]) != string(bodies[i]) {
			t.Errorf("response %d stats diverge from traced-off stats", i)
		}
	}
	if st := traces.Stats(); st.Captures != 2 {
		t.Errorf("traced requests captured %d traces, want one per seed: %+v", st.Captures, st)
	}
}

// TestServerDefaultTraceOption: a server started with DefaultTrace off
// applies it to requests without a "trace" field, and a per-request
// field overrides it.
func TestServerDefaultTraceOption(t *testing.T) {
	s, eng := newTestServer(t, sched.Options{Workers: 1},
		Options{DefaultTrace: core.TraceOff})
	if w := postCell(s, `{"app":"Fasta","seeds":[1]}`, ""); w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if st := eng.TraceStore().Stats(); st.Captures != 0 {
		t.Errorf("server default off still captured: %+v", st)
	}
	// Another seed, so the request captures instead of hitting the memo.
	if w := postCell(s, `{"app":"Fasta","seeds":[2],"trace":"auto"}`, ""); w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if st := eng.TraceStore().Stats(); st.Captures != 1 {
		t.Errorf("per-request auto did not override the server default: %+v", st)
	}
}
