package sched

import (
	"context"
	"testing"

	"bioperf5/internal/core"
	"bioperf5/internal/trace"
)

// TestEngineTraceCaptureOnceAcrossTimingConfigs is the scheduler-level
// capture-once contract: the FXU x BTAC factorial over one
// (app, variant, seed, scale) submits six distinct jobs — six cache
// misses for the result cache — but the engine's trace store runs
// exactly one functional capture; the other five replay it.
func TestEngineTraceCaptureOnceAcrossTimingConfigs(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	var hits, misses int
	for _, fxus := range []int{2, 3, 4} {
		for _, entries := range []int{0, 8} {
			j := baseJob()
			j.CPU.NumFXU = fxus
			j.CPU.UseBTAC = entries > 0
			f := e.Submit(context.Background(), j)
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			if f.TraceHit() {
				hits++
			} else {
				misses++
			}
		}
	}
	if misses != 1 || hits != 5 {
		t.Errorf("trace hits/misses = %d/%d, want 5/1", hits, misses)
	}
	st := e.TraceStore().Stats()
	if st.Captures != 1 {
		t.Errorf("trace store ran %d captures, want 1", st.Captures)
	}
	if st.MemoryHits != 5 {
		t.Errorf("trace store memory hits = %d, want 5", st.MemoryHits)
	}
	// The six jobs were six distinct cells for the result cache.
	if es := e.Stats(); es.Computed != 6 {
		t.Errorf("engine computed %d cells, want 6", es.Computed)
	}
}

// TestEngineTraceOffBypassesStore: jobs carrying the off policy never
// touch the trace store and never report a hit.
func TestEngineTraceOffBypassesStore(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	j := baseJob()
	j.Trace = core.TraceOff
	f := e.Submit(context.Background(), j)
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if f.TraceHit() {
		t.Error("off-policy job reported a trace hit")
	}
	if st := e.TraceStore().Stats(); st.Captures != 0 || st.Entries != 0 {
		t.Errorf("off-policy job touched the trace store: %+v", st)
	}
}

// TestEngineTracePolicyExcludedFromIdentity: the trace policy is an
// execution strategy, not part of the cell's identity — the same cell
// under different policies shares one cache entry and one result.
func TestEngineTracePolicyExcludedFromIdentity(t *testing.T) {
	off := baseJob()
	off.Trace = core.TraceOff
	auto := baseJob()
	auto.Trace = core.TraceAuto
	if off.Key() != auto.Key() || off.Hash() != auto.Hash() {
		t.Fatal("trace policy moved the job identity")
	}
	e := New(Options{Workers: 1})
	defer e.Close()
	r1, err := e.Run(context.Background(), off)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(context.Background(), auto)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("policies diverge through the engine")
	}
	if st := e.Stats(); st.Computed != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want one compute and one memory hit", st)
	}
}

// TestEngineInjectedTraceStoreShared: an injected store is used as-is,
// so separate engines (or a test harness) can share warm traces.
func TestEngineInjectedTraceStoreShared(t *testing.T) {
	store := trace.NewStore(trace.StoreOptions{})
	e1 := New(Options{Workers: 1, Traces: store})
	if e1.TraceStore() != store {
		t.Fatal("injected store not used")
	}
	if _, err := e1.Run(context.Background(), baseJob()); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if store.Stats().Captures != 1 {
		t.Fatalf("store stats = %+v", store.Stats())
	}
	// A second engine over the warm store replays instead of capturing.
	e2 := New(Options{Workers: 1, Traces: store})
	defer e2.Close()
	f := e2.Submit(context.Background(), baseJob())
	rep, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !f.TraceHit() {
		t.Error("warm store not hit by the second engine")
	}
	if store.Stats().Captures != 1 {
		t.Errorf("second engine recaptured: %+v", store.Stats())
	}
	if rep.Counters.Instructions == 0 || rep.Stalls.Total() != rep.Counters.Cycles {
		t.Errorf("implausible replayed report: %+v", rep)
	}
}

// TestEngineTraceReplayMatchesCoupled cross-checks the full scheduler
// path: a job run with tracing (capture + replay) equals the same job
// run coupled.  The coupled run gets a fresh engine: the trace policy is
// not part of the key, so on the first engine it would be a memo hit.
func TestEngineTraceReplayMatchesCoupled(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	j := baseJob()
	j.CPU.UseBTAC = true
	traced, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{Workers: 1})
	defer fresh.Close()
	j.Trace = core.TraceOff
	coupled, err := fresh.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Computed != 1 || st.MemoryHits != 0 {
		t.Errorf("coupled run was not computed: %+v", st)
	}
	if st := fresh.TraceStore().Stats(); st.Captures != 0 {
		t.Errorf("coupled run captured a trace: %+v", st)
	}
	if traced != coupled {
		t.Errorf("traced run diverges from coupled run\n traced:  %+v\n coupled: %+v",
			traced.Counters, coupled.Counters)
	}
}
