package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioperf5/internal/cpu"
)

func TestEngineRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{Workers: 1, Retries: 2},
		func(j Job) (cpu.Report, error) {
			if calls.Add(1) < 3 {
				return cpu.Report{}, errors.New("flaky")
			}
			return cpu.Report{Counters: cpu.Counters{Cycles: 5}}, nil
		})
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 5 {
		t.Fatalf("run = %+v, %v", rep, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("compute called %d times, want 3", got)
	}
	if st := e.Stats(); st.Retries != 2 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{Workers: 1, Retries: 1},
		func(j Job) (cpu.Report, error) {
			calls.Add(1)
			return cpu.Report{}, errors.New("always broken")
		})
	_, err := e.Run(context.Background(), baseJob())
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want an attempts-exhausted error", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("compute called %d times, want 2", got)
	}
	if st := e.Stats(); st.Retries != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEnginePanicRetried(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{Workers: 1, Retries: 1},
		func(j Job) (cpu.Report, error) {
			if calls.Add(1) == 1 {
				panic("transient panic")
			}
			return cpu.Report{Counters: cpu.Counters{Cycles: 9}}, nil
		})
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 9 {
		t.Fatalf("run = %+v, %v", rep, err)
	}
	if st := e.Stats(); st.Panics != 1 || st.Retries != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEnginePermanentErrorNotRetried(t *testing.T) {
	// An unknown application is a permanent error: the retry budget
	// must not be spent on it.
	e := New(Options{Workers: 1, Retries: 3})
	defer e.Close()
	j := baseJob()
	j.App = "NoSuchApp"
	if _, err := e.Run(context.Background(), j); err == nil {
		t.Fatal("unknown application accepted")
	}
	if st := e.Stats(); st.Retries != 0 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineCellTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	e := stubEngine(t, Options{Workers: 1, CellTimeout: 20 * time.Millisecond},
		func(j Job) (cpu.Report, error) {
			if j.Seed == 1 { // the hanging cell
				<-block
				return cpu.Report{}, nil
			}
			return cpu.Report{Counters: cpu.Counters{Cycles: 3}}, nil
		})
	_, err := e.Run(context.Background(), baseJob())
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if st := e.Stats(); st.Timeouts != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The worker survives: a fast job still runs.
	fast := baseJob()
	fast.Seed = 2
	if rep, err := e.Run(context.Background(), fast); err != nil || rep.Counters.Cycles != 3 {
		t.Fatalf("engine wedged after timeout: %+v, %v", rep, err)
	}
}

func TestEngineTimeoutThenRetrySucceeds(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{
		Workers: 1, Retries: 1,
		CellTimeout: 30 * time.Millisecond,
	}, func(j Job) (cpu.Report, error) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // transient hang
		}
		return cpu.Report{Counters: cpu.Counters{Cycles: 4}}, nil
	})
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 4 {
		t.Fatalf("run = %+v, %v", rep, err)
	}
	if st := e.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEngineSubmitUnblocksOnCancel is the regression test for Submit
// parked on a full bounded queue: cancelling the submission context
// must unblock it, fail the future, and leave the cell computable by a
// later submission.
func TestEngineSubmitUnblocksOnCancel(t *testing.T) {
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	started := make(chan struct{}, 16)
	e := stubEngine(t, Options{Workers: 1},
		func(j Job) (cpu.Report, error) {
			started <- struct{}{}
			<-block
			return cpu.Report{Counters: cpu.Counters{Cycles: 1}}, nil
		})
	defer unblock() // let the pool drain before Cleanup closes the engine

	e.Submit(context.Background(), baseJob()) // occupies the worker
	<-started                                 // worker is now blocked inside compute
	for seed := int64(2); seed <= 5; seed++ {
		j := baseJob()
		j.Seed = seed
		e.Submit(context.Background(), j) // fills the queue (4 x 1 worker)
	}

	j3 := baseJob()
	j3.Seed = 6
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	doneBy := time.Now().Add(10 * time.Second)
	f := e.Submit(ctx, j3) // blocks on the full queue until the cancel
	if time.Now().After(doneBy) {
		t.Fatal("Submit did not return promptly after cancellation")
	}
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("future err = %v, want context.Canceled", err)
	}

	// The withdrawn cell is not poisoned: once the pool drains, a fresh
	// submission computes it.
	unblock()
	rep, err := e.Run(context.Background(), j3)
	if err != nil || rep.Counters.Cycles != 1 {
		t.Fatalf("resubmit after cancelled Submit = %+v, %v", rep, err)
	}
}

func TestEngineInjectedErrorRetried(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, Options{
		Workers: 1, Retries: 1,
		Injector: faults(t, "error=1"), // inject once (times defaults to 1)
	}, func(j Job) (cpu.Report, error) {
		calls.Add(1)
		return cpu.Report{Counters: cpu.Counters{Cycles: 6}}, nil
	})
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 6 {
		t.Fatalf("run = %+v, %v", rep, err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("compute called %d times, want 1 (attempt 0 consumed by the injected fault)", got)
	}
	if st := e.Stats(); st.Injected != 1 || st.Retries != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineInjectedPanicAndCancelRetried(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
	}{
		{"panic", "panic=1"},
		{"cancel", "cancel=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := stubEngine(t, Options{
				Workers: 1, Retries: 1, Injector: faults(t, tc.spec),
			}, func(j Job) (cpu.Report, error) {
				return cpu.Report{Counters: cpu.Counters{Cycles: 8}}, nil
			})
			rep, err := e.Run(context.Background(), baseJob())
			if err != nil || rep.Counters.Cycles != 8 {
				t.Fatalf("run = %+v, %v", rep, err)
			}
			if st := e.Stats(); st.Injected != 1 || st.Retries != 1 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestEngineInjectedHangTripsWatchdog(t *testing.T) {
	e := stubEngine(t, Options{
		Workers: 1, Retries: 1,
		CellTimeout: 20 * time.Millisecond,
		Injector:    faults(t, "hang=1,delay=2s"),
	}, func(j Job) (cpu.Report, error) {
		return cpu.Report{Counters: cpu.Counters{Cycles: 2}}, nil
	})
	rep, err := e.Run(context.Background(), baseJob())
	if err != nil || rep.Counters.Cycles != 2 {
		t.Fatalf("run = %+v, %v", rep, err)
	}
	if st := e.Stats(); st.Injected != 1 || st.Timeouts != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v", st)
	}
}
