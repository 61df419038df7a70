package harness

import (
	"context"
	"errors"
	"sync"

	"bioperf5/internal/core"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
)

// sharedEngine is the process-wide default scheduler used when a
// Config carries no engine of its own: GOMAXPROCS workers and an
// in-memory cache, so repeated runs in one process (tests, a server
// without an engine of its own) hit the memo.
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

// pending is one outstanding (kernel, setup) cell: a future per seed.
// Every local cell — a planned one (submitLocal) or a served one
// (CellStats) — is submitted with submitCell and collected with collect,
// so a cell's outcome is classified in one place.
type pending struct {
	seeds []int64
	futs  []*sched.Future
	// shared flags the seeds whose submission coalesced onto an
	// already in-flight or memoized computation; their futures carry
	// the original computation's cost, which must not be re-attributed
	// to this cell.
	shared    []bool
	coalesced int // how many seeds are shared
}

// submitCell fans the cell's seeds out to the scheduler under the
// configuration's context (Background when unset), so a cancelled
// sweep unblocks promptly even while Submit is parked on a full queue.
func (c Config) submitCell(app string, s core.Setup) *pending {
	eng := c.engine()
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cl := &pending{seeds: c.Seeds}
	for _, seed := range c.Seeds {
		f, hit := eng.SubmitTracked(ctx, c.job(app, s, seed))
		cl.futs = append(cl.futs, f)
		cl.shared = append(cl.shared, hit)
		if hit {
			cl.coalesced++
		}
	}
	return cl
}

// submitLocal is what a nil Config.Submit means: the cell runs on the
// configuration's engine.
func (c Config) submitLocal(ctx context.Context, pc PlanCell) func() CellResult {
	c.Context = ctx
	cell := c.submitCell(pc.App, pc.Setup)
	return func() CellResult { return cell.collect().CellResult }
}

// collect waits for the cell.  Coalesced seeds contribute no cost:
// their computation belongs to the submission that enqueued it, so
// each unit of work is attributed exactly once and a fully memoized
// cell reports a zero breakdown.  They triggered no capture of their
// own either, so they never clear TraceHit.
func (cl *pending) collect() CellOutcome {
	out := CellOutcome{Coalesced: cl.coalesced, TraceHit: true}
	det := &core.Detail{}
	for i, f := range cl.futs {
		rep, err := f.Wait()
		if err != nil {
			out.err, out.Err, out.Status = err, err.Error(), StatusFailed
			if errors.Is(err, sched.ErrCellTimeout) {
				out.Status = StatusTimeout
			}
			out.TraceHit = false
			return out
		}
		det.Seeds = append(det.Seeds, core.SeedReport{
			Seed: cl.seeds[i], Counters: rep.Counters, Stalls: rep.Stalls,
		})
		det.Aggregate = det.Aggregate.Add(rep)
		if !cl.shared[i] {
			out.Cost.Add(f.Cost())
			out.TraceHit = out.TraceHit && f.TraceHit()
		}
	}
	out.Detail, out.Status = det, StatusOK
	return out
}

// CellOutcome is the outcome of one cell run through the scheduler.
// The embedded CellResult holds the per-seed + aggregate detail (summed
// in seed order, the shape core.Simulate returns for a serial run), the
// exactly-once stage cost and the ok/failed/timeout status; a failed
// cell carries its error and coalesced count and nothing else.
type CellOutcome struct {
	CellResult
	// Coalesced counts per-seed submissions served by the scheduler's
	// in-memory layer — joined an in-flight computation or hit the
	// memoized result — the number behind `server.cells.coalesced`.
	Coalesced int
	// TraceHit reports whether every seed was served without a fresh
	// functional capture: trace replays, disk-cached results, or
	// coalesced submissions.  Always false with tracing off.
	TraceHit bool
	// Stats (the report-schema view of Detail) and Key (the hash over
	// the per-seed job hashes, the value a sweep manifest records) are
	// filled in by CellStats.
	Stats KernelStats
	Key   string
}

// CellStats runs one (application, setup) cell through the
// configuration's engine and packages the result for an API consumer.
func CellStats(cfg Config, app string, s core.Setup) (CellOutcome, error) {
	cfg = cfg.normalize()
	k, err := kernels.ByApp(app)
	if err != nil {
		return CellOutcome{}, err
	}
	out := cfg.submitCell(k.App, s).collect()
	if out.err == nil {
		out.Stats = packKernelStats(k, s, out.Detail)
		out.Key = cfg.cellKey(k.App, s)
	}
	return out, out.err
}
