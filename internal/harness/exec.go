package harness

import (
	"context"
	"sync"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
)

// sharedEngine is the process-wide default scheduler used when a
// Config carries no engine of its own: GOMAXPROCS workers and an
// in-memory cache, so `run all` computes the baseline column once
// across Table I and Figures 4-6.
var (
	sharedOnce sync.Once
	shared     *sched.Engine
)

func sharedEngine() *sched.Engine {
	sharedOnce.Do(func() { shared = sched.New(sched.Options{}) })
	return shared
}

// engine resolves the scheduler this configuration submits cells to.
func (c Config) engine() *sched.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return sharedEngine()
}

// cell is one outstanding (kernel, setup) experiment cell: a future
// per seed.  Experiments submit every cell up front and collect in
// table order, so the rendered rows are identical to the old serial
// loops regardless of worker count.
type pending struct {
	seeds []int64
	futs  []*sched.Future
	// shared flags the seeds whose submission coalesced onto an
	// already in-flight or memoized computation; their futures carry
	// the original computation's cost, which must not be re-attributed
	// to this cell.
	shared []bool
}

// submitCell fans the cell's seeds out to the scheduler under the
// configuration's context (Background when unset), so a cancelled
// sweep unblocks promptly even while Submit is parked on a full queue.
func (c Config) submitCell(k *kernels.Kernel, s core.Setup) *pending {
	eng := c.engine()
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cl := &pending{seeds: c.Seeds}
	for _, seed := range c.Seeds {
		f, hit := eng.SubmitTracked(ctx, sched.Job{
			App:     k.App,
			Variant: s.Variant,
			CPU:     s.CPU,
			Seed:    seed,
			Scale:   c.Scale,
			Trace:   c.Trace,
		})
		cl.futs = append(cl.futs, f)
		cl.shared = append(cl.shared, hit)
	}
	return cl
}

// detail collects the cell into the per-seed + aggregate shape the
// core.Simulate returns for a serial run, summing in seed order.
func (cl *pending) detail() (*core.Detail, error) {
	det := &core.Detail{}
	for i, f := range cl.futs {
		rep, err := f.Wait()
		if err != nil {
			return nil, err
		}
		det.Seeds = append(det.Seeds, core.SeedReport{
			Seed: cl.seeds[i], Counters: rep.Counters, Stalls: rep.Stalls,
		})
		det.Aggregate = det.Aggregate.Add(rep)
	}
	return det, nil
}

// counters collects the cell's summed counters.
func (cl *pending) counters() (cpu.Counters, error) {
	det, err := cl.detail()
	if err != nil {
		return cpu.Counters{}, err
	}
	return det.Aggregate.Counters, nil
}

// cost sums the per-seed stage breakdowns of a completed cell.  Call
// it only after detail()/counters() has returned — it waits on every
// future.  Coalesced seeds contribute nothing: their computation (and
// its cost) belongs to the submission that enqueued it, so each unit
// of work is attributed exactly once and a fully-memoized cell
// reports a zero breakdown.
func (cl *pending) cost() telemetry.StageCost {
	var c telemetry.StageCost
	for i, f := range cl.futs {
		if i < len(cl.shared) && cl.shared[i] {
			continue
		}
		c.Add(f.Cost())
	}
	return c
}

// CellOutcome is the result of running one (application, setup) cell
// through the scheduler, packaged for an API consumer.
type CellOutcome struct {
	// Stats is the per-seed + aggregate view of the cell.
	Stats KernelStats
	// Key is the cell's content key (the hash over its per-seed job
	// hashes, the same value a sweep manifest records).
	Key string
	// Coalesced counts per-seed submissions served by the scheduler's
	// in-memory layer — joined an in-flight computation or hit the
	// memoized result — the number behind `server.cells.coalesced`.
	Coalesced int
	// TraceHit reports whether every seed was served without a fresh
	// functional capture: trace replays, disk-cached results, or
	// coalesced submissions.  Always false with tracing off.
	TraceHit bool
	// Cost is the summed per-stage time breakdown across the cell's
	// seeds: where its wall time went (queue wait, compile, capture,
	// replay, cache I/O).
	Cost telemetry.StageCost
}

// CellStats runs one (application, setup) cell through the
// configuration's engine and packages the result for an API consumer.
func CellStats(cfg Config, app string, s core.Setup) (CellOutcome, error) {
	cfg = cfg.normalize()
	out := CellOutcome{}
	k, err := kernels.ByApp(app)
	if err != nil {
		return out, err
	}
	eng := cfg.engine()
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		jobs   []sched.Job
		futs   []*sched.Future
		shared []bool
	)
	for _, seed := range cfg.Seeds {
		j := sched.Job{
			App:     k.App,
			Variant: s.Variant,
			CPU:     s.CPU,
			Seed:    seed,
			Scale:   cfg.Scale,
			Trace:   cfg.Trace,
		}
		jobs = append(jobs, j)
		f, hit := eng.SubmitTracked(ctx, j)
		if hit {
			out.Coalesced++
		}
		futs = append(futs, f)
		shared = append(shared, hit)
	}
	cl := &pending{seeds: cfg.Seeds, futs: futs, shared: shared}
	det, err := cl.detail()
	if err != nil {
		return out, err
	}
	out.TraceHit = true
	for i, f := range futs {
		// A coalesced submission joined someone else's computation, so
		// it triggered no capture of its own either way.
		if !shared[i] && !f.TraceHit() {
			out.TraceHit = false
			break
		}
	}
	out.Stats = packKernelStats(k, s, det)
	out.Key = cellKey(jobs)
	out.Cost = cl.cost()
	return out, nil
}
