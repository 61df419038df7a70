package sched

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/fault"
	"bioperf5/internal/kernels"
)

func baseJob() Job {
	return Job{App: "Clustalw", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(), Seed: 1, Scale: 1}
}

func TestJobHashCanonical(t *testing.T) {
	j := baseJob()
	if j.Hash() != baseJob().Hash() {
		t.Fatal("equal jobs hash differently")
	}
	// Scale is normalized: 0 and 1 are the same cell.
	j0 := baseJob()
	j0.Scale = 0
	if j0.Hash() != baseJob().Hash() {
		t.Error("scale 0 and scale 1 should share a cache entry")
	}
	// Every dimension of the design space must move the hash.
	mutations := map[string]func(*Job){
		"app":     func(j *Job) { j.App = "Fasta" },
		"variant": func(j *Job) { j.Variant = kernels.Combination },
		"seed":    func(j *Job) { j.Seed = 2 },
		"scale":   func(j *Job) { j.Scale = 2 },
		"fxus":    func(j *Job) { j.CPU.NumFXU = 4 },
		"btac":    func(j *Job) { j.CPU.UseBTAC = true },
		"btac-geometry": func(j *Job) {
			j.CPU.UseBTAC = true
			j.CPU.BTAC.Entries = 16
		},
		"predictor": func(j *Job) { j.CPU.Predictor = "gshare" },
	}
	seen := map[string]string{baseJob().Hash(): "base"}
	for name, mutate := range mutations {
		j := baseJob()
		mutate(&j)
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestJobHashCoalescesPredictorSpellings pins the cache-coalescing
// property of predictor specs: every spelling of the same predictor is
// canonicalized before hashing, so equivalent cells share one cache
// entry across sweep, serve and cluster.
func TestJobHashCoalescesPredictorSpellings(t *testing.T) {
	withPred := func(spec string) Job {
		j := baseJob()
		j.CPU.Predictor = spec
		return j
	}
	equivalent := [][]string{
		{"", "tournament", "tournament:bits=12,hist=11", " Tournament : hist=11 , bits=12 "},
		{"gshare", "gshare:bits=12", "gshare:hist=11,bits=12", "gshare:bits=12,hist=11"},
		{"tage", "tage:tables=4,bits=10,tag=8,hist=2..64", "tage:hist=2..64"},
		{"perceptron", "perceptron:weights=256,hist=24"},
	}
	hashes := map[string]string{}
	for _, group := range equivalent {
		want := withPred(group[0]).Hash()
		for _, spec := range group[1:] {
			if got := withPred(spec).Hash(); got != want {
				t.Errorf("spellings %q and %q hash differently", group[0], spec)
			}
		}
		if prev, dup := hashes[want]; dup {
			t.Errorf("distinct predictors %q and %q collide", prev, group[0])
		}
		hashes[want] = group[0]
	}
	// Parameter changes move the hash.
	if withPred("gshare:bits=14").Hash() == withPred("gshare").Hash() {
		t.Error("gshare:bits=14 should not share a cache entry with the default gshare")
	}
	// Unparseable specs still key deterministically (verbatim).
	bad := withPred("no-such-predictor")
	if bad.Hash() != bad.Hash() {
		t.Error("unparseable spec hash is not deterministic")
	}
}

// stubEngine builds an engine whose compute function is replaced, so
// scheduler mechanics can be tested without real simulations.
func stubEngine(t *testing.T, o Options, compute func(Job) (cpu.Report, error)) *Engine {
	t.Helper()
	e := New(o)
	e.compute = func(_ context.Context, j Job) (JobResult, error) {
		rep, err := compute(j)
		return JobResult{Report: rep}, err
	}
	t.Cleanup(e.Close)
	return e
}

// faults parses a fault spec into the injector a test arms its engine
// with.
func faults(t *testing.T, spec string) fault.Injector {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEngineDedupComputesOnce(t *testing.T) {
	var computes atomic.Int64
	e := stubEngine(t, Options{Workers: 4}, func(j Job) (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{Counters: cpu.Counters{Cycles: 7, Instructions: 3}}, nil
	})
	const n = 16
	var wg sync.WaitGroup
	reps := make([]cpu.Report, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = e.Run(context.Background(), baseJob())
		}()
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if reps[i].Counters.Cycles != 7 {
			t.Fatalf("job %d: wrong result %+v", i, reps[i])
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	st := e.Stats()
	if st.Submitted != n || st.Computed != 1 || st.MemoryHits != n-1 {
		t.Errorf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr < 0.9 {
		t.Errorf("hit rate %.2f, want ~%.2f", hr, float64(n-1)/n)
	}
}

func TestEnginePanicRecovery(t *testing.T) {
	e := stubEngine(t, Options{Workers: 2}, func(j Job) (cpu.Report, error) {
		if j.Seed == 13 {
			panic("unlucky seed")
		}
		return cpu.Report{Counters: cpu.Counters{Cycles: 1}}, nil
	})
	bad := baseJob()
	bad.Seed = 13
	if _, err := e.Run(context.Background(), bad); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	// The pool survives and still runs other jobs.
	if _, err := e.Run(context.Background(), baseJob()); err != nil {
		t.Fatalf("engine dead after panic: %v", err)
	}
	if st := e.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineCancelledContext(t *testing.T) {
	var computes atomic.Int64
	e := stubEngine(t, Options{Workers: 1}, func(j Job) (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, baseJob()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if computes.Load() != 0 {
		t.Error("cancelled job was simulated")
	}
	// A live context retries the same cell: the failure was not cached.
	if _, err := e.Run(context.Background(), baseJob()); err != nil {
		t.Fatalf("cancellation was memoized: %v", err)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
}

// TestEngineCoalescedWaiterOutlivesFirstSubmitter: two requests for one
// cell, the first with a 1 ms deadline, the second patient.  The second
// coalesces onto the first's attempt, which dies of the first's
// deadline; the second must still get the report (from one
// re-submission at most), never the other request's deadline.
func TestEngineCoalescedWaiterOutlivesFirstSubmitter(t *testing.T) {
	hurried, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var calls atomic.Int64
	e := stubEngine(t, Options{Workers: 1}, func(j Job) (cpu.Report, error) {
		if calls.Add(1) == 1 {
			<-hurried.Done() // the first attempt outlasts its submitter's deadline
		}
		return cpu.Report{Counters: cpu.Counters{Cycles: 9}}, nil
	})
	first := e.Submit(hurried, baseJob())
	second, coalesced := e.SubmitTracked(context.Background(), baseJob())
	if _, err := first.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("hurried request: err = %v, want its own deadline", err)
	}
	rep, err := second.Wait()
	if err != nil || rep.Counters.Cycles != 9 {
		t.Fatalf("patient request (coalesced %v) = %+v, %v; want the report", coalesced, rep, err)
	}
	if st := e.Stats(); st.Computed > 2 {
		t.Errorf("computed %d times, want at most 2", st.Computed)
	}
}

func TestEngineFailureNotMemoized(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{Workers: 1}, func(j Job) (cpu.Report, error) {
		if calls.Add(1) == 1 {
			return cpu.Report{}, errors.New("transient")
		}
		return cpu.Report{Counters: cpu.Counters{Cycles: 2}}, nil
	})
	if _, err := e.Run(context.Background(), baseJob()); err == nil {
		t.Fatal("first run should fail")
	}
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 2 {
		t.Fatalf("retry = %+v, %v", rep, err)
	}
}

// TestEngineResultMemoIsBounded submits more distinct cells than a
// lowered budget holds, each under a context of its own.  Resident results must stay within the budget with the overflow counted
// as evictions, no completed future may pin its submitter's context, and
// an evicted cell must compute again, to the same result.
func TestEngineResultMemoIsBounded(t *testing.T) {
	const budget, cells = 4 * resultBytes, 16
	var computes atomic.Int64
	e := stubEngine(t, Options{Workers: 2, budget: budget}, func(j Job) (cpu.Report, error) {
		computes.Add(1)
		return cpu.Report{Counters: cpu.Counters{Cycles: 7 * uint64(j.Seed)}}, nil
	})
	job := func(i int) Job {
		j := baseJob()
		j.Seed = int64(i + 1)
		return j
	}
	futs := make([]*Future, cells)
	for i := range futs {
		ctx, cancel := context.WithCancel(context.Background())
		futs[i] = e.Submit(ctx, job(i))
		defer cancel()
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if _, bytes := e.memo.Usage(); bytes > budget {
			t.Fatalf("resident results hold %d bytes, budget %d", bytes, budget)
		}
	}
	if n, _ := e.memo.Usage(); n != budget/resultBytes {
		t.Errorf("%d results resident, want %d", n, budget/resultBytes)
	}
	if ev := e.Registry().Counter("sched.cache.memory.evictions").Value(); ev != cells-budget/resultBytes {
		t.Errorf("sched.cache.memory.evictions = %d, want %d", ev, cells-budget/resultBytes)
	}
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	for i, f := range futs {
		v := reflect.ValueOf(f).Elem()
		for k := 0; k < v.NumField(); k++ {
			if fv := v.Field(k); fv.Type() == ctxType && !fv.IsNil() {
				t.Errorf("completed future %d holds a context in field %s", i, v.Type().Field(k).Name)
			}
		}
	}
	evicted := -1
	for i := range futs {
		if _, ok := e.memo.Get(job(i).Hash()); !ok {
			evicted = i
			break
		}
	}
	if evicted < 0 {
		t.Fatal("no cell was evicted")
	}
	before := computes.Load()
	got, err := e.Run(context.Background(), job(evicted))
	want, _ := futs[evicted].Wait()
	if err != nil || got != want {
		t.Errorf("evicted cell recomputed to %+v, %v; first result %+v", got, err, want)
	}
	if computes.Load() != before+1 {
		t.Errorf("resubmitting an evicted cell computed %d times, want 1", computes.Load()-before)
	}
}

func TestEngineSubmitAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	if _, err := e.Run(context.Background(), baseJob()); err == nil {
		t.Fatal("submit after close succeeded")
	}
	e.Close() // double close is a no-op
}

func TestEngineUnknownAppFails(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	j := baseJob()
	j.App = "NoSuchApp"
	if _, err := e.Run(context.Background(), j); err == nil {
		t.Fatal("unknown application accepted")
	}
}

// TestEngineRealCell runs one real simulation through the engine and
// cross-checks the result against the serial core path.
func TestEngineRealCell(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	j := baseJob()
	got, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := j.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Report
	if got != want {
		t.Errorf("scheduled cell = %+v, serial cell = %+v", got, want)
	}
	if got.Counters.Instructions == 0 || got.Stalls.Total() != got.Counters.Cycles {
		t.Errorf("implausible report: %+v", got)
	}
}
