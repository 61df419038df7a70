// Package cluster is the distributed sweep fabric: a coordinator that
// shards a factorial sweep's cells across remote `bioperf5 serve`
// workers and merges the results into a manifest byte-identical to a
// single-node run.
//
// The plan is the contract.  harness.PlanSweep fixes every cell's
// identity (content key) and order before anything is dispatched;
// workers only ever fill in results for keys the coordinator already
// knows, and harness.SweepPlan.Manifest — the same assembly path the
// local RunSweep uses — folds them back in plan order.  Everything
// distributed about the run (which worker computed what, steals,
// retries, deaths) lands in operational fields the determinism
// comparisons strip, so `sweep -workers a,b` and a local sweep agree
// on every byte that is science.
//
// Scheduling is defensive by construction:
//
//   - cells are deduplicated by content key, then round-robin sharded
//     across workers;
//   - an idle worker steals from the longest surviving queue, so one
//     slow shard cannot gate the sweep;
//   - once no undispatched work remains, idle workers re-dispatch
//     in-flight stragglers (bounded to two owners per cell) and the
//     first result wins — late duplicates are counted and dropped;
//   - a worker that fails a dispatch or misses its heartbeat budget is
//     declared dead, its queue is orphaned to the survivors, and when
//     no workers remain the still-undone cells degrade to per-cell
//     failed status instead of aborting the sweep.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/telemetry"
)

// Options configures one distributed sweep.
type Options struct {
	// Workers are the worker base URLs ("host:port" gets "http://"
	// prepended).  At least one is required.
	Workers []string
	// Spec is the sweep to run; Spec.Config.Context bounds the whole
	// run and carries the span tracer, exactly as in RunSweep.
	Spec harness.SweepSpec
	// BatchSize is how many cells one dispatch carries; values < 1
	// mean 4 — small enough to keep shards balanced and results
	// flowing, large enough to amortize the HTTP round trip.
	BatchSize int
	// Retries, RetryBackoff and MaxRetryAfter configure dispatch
	// retry behavior; see Client.
	Retries       int
	RetryBackoff  time.Duration
	MaxRetryAfter time.Duration
	// RequestTimeout bounds one batch round trip end to end; values
	// <= 0 mean 10 minutes.
	RequestTimeout time.Duration
	// HeartbeatEvery is the readiness-probe period; values <= 0 mean
	// 1s.  HeartbeatMisses consecutive failed probes trip the worker's
	// circuit breaker; values < 1 mean 3.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// BreakerThreshold is how many consecutive dispatch failures open
	// a worker's circuit breaker (default 3); BreakerCooldown is the
	// open-state wait before a /readyz recovery probe (default 500ms);
	// QuarantineTrips is how many breaker trips permanently remove a
	// flapping worker (default 3).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	QuarantineTrips  int
	// Journal, when non-nil, records completed cells for -resume and
	// replays already-completed ones before dispatching.
	Journal *Journal
	// Registry, when non-nil, receives the cluster.* counters.
	Registry *telemetry.Registry
	// HTTP overrides the transport shared by every worker client.
	HTTP *http.Client
}

// unit is one distinct content-addressed cell: several coincident plan
// cells (an application baseline that is also a grid point) share one
// unit, exactly as they coalesce in the local engine.
type unit struct {
	key        string
	req        server.CellRequest
	done       bool
	inflight   int // dispatches currently unanswered
	dispatches int // total dispatch attempts, bounds straggler re-dispatch
	res        harness.CellResult
	traceHit   bool
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	name   string
	cli    *Client
	br     *breaker
	ctx    context.Context
	cancel context.CancelFunc
	queue  []*unit // this worker's shard, in plan order
	dead   bool
	misses int // consecutive heartbeat failures; heartbeat goroutine only

	// dispatchCancel aborts the batch currently in flight, if any —
	// the heartbeat uses it to unwedge a runner stuck talking to an
	// unresponsive worker without killing the worker for good.
	// Guarded by the coordinator mutex.
	dispatchCancel context.CancelFunc
}

type coordinator struct {
	o    Options
	ctx  context.Context // the sweep root context (spans nest here)
	plan *harness.SweepPlan

	// done is closed when every cell has an answer, so runners asleep
	// in a breaker cooldown wake up and exit (sync.Cond has no timed
	// wait).
	done     chan struct{}
	doneOnce sync.Once

	mu      sync.Mutex
	cond    *sync.Cond
	units   map[string]*unit
	orphans []*unit // requeued cells from dead workers, dispatched first
	workers []*workerState
	live    int
	undone  int
	stats   harness.ClusterStats
	retries uint64 // HTTP retry count, fed by Client.OnRetry

	// breaker telemetry, published at the end of the run
	brOpened, brReclosed, brQuarantined uint64
	brProbes, brProbeFails              uint64
}

// Run executes one distributed sweep and returns its manifest.  It
// fails fast — before dispatching anything — when a worker is
// unreachable or speaks a different wire schema; mid-run worker loss
// degrades per-cell instead.
func Run(o Options) (*harness.SweepManifest, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if o.BatchSize < 1 {
		o.BatchSize = 4
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Minute
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.HeartbeatMisses < 1 {
		o.HeartbeatMisses = 3
	}
	plan, err := harness.PlanSweep(o.Spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	ctx := plan.Spec.Config.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sweepSpan := telemetry.StartSpan(ctx, telemetry.StageSweep)
	defer sweepSpan.End()
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	c := &coordinator{
		o: o, ctx: ctx, plan: plan,
		units: make(map[string]*unit),
		done:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)

	c.buildWorkers(runCtx)
	if err := c.handshake(runCtx); err != nil {
		return nil, err
	}
	c.buildUnits()
	c.shard()

	// Cancellation degrades, it does not abort: undone cells fail with
	// a clear reason and the manifest still ships.
	go func() {
		<-runCtx.Done()
		c.mu.Lock()
		c.failUndone("cluster: sweep cancelled: " + context.Cause(runCtx).Error())
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	go c.heartbeat(runCtx)

	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			c.runner(w)
		}(w)
	}
	wg.Wait()
	cancelRun()

	m := c.assemble()
	m.ElapsedMS = time.Since(start).Milliseconds()
	c.publish()
	return m, nil
}

// buildWorkers constructs one client per configured worker.
func (c *coordinator) buildWorkers(runCtx context.Context) {
	for _, base := range c.o.Workers {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		cli := &Client{
			Base:          base,
			HTTP:          c.o.HTTP,
			Retries:       c.o.Retries,
			RetryBackoff:  c.o.RetryBackoff,
			MaxRetryAfter: c.o.MaxRetryAfter,
			OnRetry: func(time.Duration) {
				c.mu.Lock()
				c.retries++
				c.mu.Unlock()
			},
		}
		wctx, wcancel := context.WithCancel(runCtx)
		c.workers = append(c.workers, &workerState{
			name: base, cli: cli, ctx: wctx, cancel: wcancel,
			br: newBreaker(breakerConfig{
				FailureThreshold: c.o.BreakerThreshold,
				Cooldown:         c.o.BreakerCooldown,
				QuarantineTrips:  c.o.QuarantineTrips,
			}),
		})
	}
	c.live = len(c.workers)
	c.stats.Workers = len(c.workers)
}

// handshake verifies every worker is reachable and speaks this
// coordinator's wire schema.  A mismatch is fatal by design: a worker
// on another schema would hash cells differently or serialize results
// incompatibly, and silently mixing fleets corrupts the manifest.
func (c *coordinator) handshake(ctx context.Context) error {
	for _, w := range c.workers {
		var v server.VersionInfo
		var err error
		// A transient refusal (a chaotic link, a worker still binding
		// its socket) must not abort the whole sweep: retry the
		// handshake on the client's retry budget before giving up.
		for attempt := 0; ; attempt++ {
			hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			v, err = w.cli.Version(hctx)
			cancel()
			if err == nil || attempt >= w.cli.retries() || ctx.Err() != nil {
				break
			}
			if serr := w.cli.sleep(ctx, w.cli.retryDelay(attempt, nil)); serr != nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("cluster: version handshake with %s failed: %w", w.name, err)
		}
		if v.Schema != harness.SchemaVersion {
			return fmt.Errorf(
				"cluster: worker %s speaks schema %q but this coordinator speaks %q; "+
					"refusing to mix incompatible fleets (upgrade the worker binary)",
				w.name, v.Schema, harness.SchemaVersion)
		}
	}
	return nil
}

// buildUnits deduplicates the plan's cells by content key and replays
// the resume journal.  Baselines come first so the first bearer of a
// shared key — the one that will carry its cost — matches local
// submission order.
func (c *coordinator) buildUnits() {
	add := func(pc harness.PlanCell) {
		if _, ok := c.units[pc.Key]; ok {
			return
		}
		u := &unit{key: pc.Key, req: server.CellRequest(pc.Cell)}
		if c.o.Journal != nil {
			if rec, ok := c.o.Journal.Lookup(pc.Key); ok {
				u.done = true
				u.traceHit = rec.TraceHit
				u.res = harness.CellResult{
					Detail: rec.Stats.Detail(),
					Status: harness.StatusOK,
				}
				c.stats.Resumed++
			}
		}
		c.units[pc.Key] = u
	}
	for _, pc := range c.plan.Baselines {
		add(pc)
	}
	for _, pc := range c.plan.Points {
		add(pc)
	}
	c.stats.Cells = uint64(len(c.units))
	for _, u := range c.units {
		if !u.done {
			c.undone++
		}
	}
}

// shard deals the undone units round-robin across workers, in plan
// order so neighboring cells (same app, adjacent configurations, best
// trace-cache locality) tend to land on the same worker.
func (c *coordinator) shard() {
	i := 0
	each := func(pc harness.PlanCell) {
		u := c.units[pc.Key]
		if u.done || u.dispatches == -1 {
			return
		}
		u.dispatches = -1 // sharded marker, reset below
		c.workers[i%len(c.workers)].queue = append(c.workers[i%len(c.workers)].queue, u)
		i++
	}
	for _, pc := range c.plan.Baselines {
		each(pc)
	}
	for _, pc := range c.plan.Points {
		each(pc)
	}
	for _, u := range c.units {
		if u.dispatches == -1 {
			u.dispatches = 0
		}
	}
}

// runner is one worker's dispatch loop: wait until the breaker admits
// dispatch, pull a batch, send it, record the stream, repeat until the
// sweep drains, the worker is quarantined, or it dies.  A dispatch
// failure no longer kills the worker outright — it feeds the circuit
// breaker, which decides between retry-after-cooldown and quarantine.
func (c *coordinator) runner(w *workerState) {
	for {
		if !c.awaitDispatchable(w) {
			return
		}
		batch := c.nextBatch(w)
		if batch == nil {
			return
		}
		before := w.br.State()
		err := c.dispatch(w, batch)
		if err != nil {
			c.requeue(batch)
			if c.dispatchFailed(w, err) {
				return
			}
			continue
		}
		w.br.Success()
		if before == BreakerHalfOpen {
			c.mu.Lock()
			c.brReclosed++
			c.mu.Unlock()
			c.breakerSpan(w, "reclosed")
		}
	}
}

// awaitDispatchable blocks while w's breaker is open: it sleeps out
// the cooldown, then probes /readyz — success moves to half-open so
// one trial batch can decide, failure restarts the cooldown.  Returns
// false when the worker is dead or quarantined, or the sweep is done.
func (c *coordinator) awaitDispatchable(w *workerState) bool {
	for {
		c.mu.Lock()
		dead, undone := w.dead, c.undone
		c.mu.Unlock()
		if dead || undone == 0 {
			return false
		}
		switch w.br.State() {
		case BreakerClosed, BreakerHalfOpen:
			return true
		case BreakerQuarantined:
			return false
		}
		due, rem := w.br.ProbeDue()
		if !due {
			t := time.NewTimer(rem)
			select {
			case <-t.C:
			case <-w.ctx.Done():
				t.Stop()
				return false
			case <-c.done:
				t.Stop()
				return false
			}
			t.Stop()
			continue
		}
		pctx, cancel := context.WithTimeout(w.ctx, c.o.HeartbeatEvery)
		err := w.cli.Ready(pctx)
		cancel()
		c.mu.Lock()
		c.brProbes++
		if err != nil {
			c.brProbeFails++
		}
		c.mu.Unlock()
		// A failed probe restarts the cooldown without counting a
		// trip: a long partition must end in recovery, not quarantine.
		w.br.ProbeResult(err == nil)
	}
}

// dispatchFailed feeds one dispatch failure to w's breaker and acts on
// the resulting state.  Returns true when the runner should exit (the
// worker was quarantined or is dead).
func (c *coordinator) dispatchFailed(w *workerState, err error) bool {
	before := w.br.State()
	state := w.br.Failure()
	switch {
	case state == BreakerQuarantined:
		c.mu.Lock()
		c.brQuarantined++
		c.brOpened++ // the quarantining failure is also a trip
		c.stats.BreakerTrips++
		c.stats.Quarantined++
		c.mu.Unlock()
		c.breakerSpan(w, "quarantined")
		c.workerLost(w, fmt.Errorf(
			"quarantined after %d breaker trips, last error: %w", w.br.Trips(), err))
		return true
	case state == BreakerOpen && before != BreakerOpen:
		c.mu.Lock()
		c.brOpened++
		c.stats.BreakerTrips++
		c.mu.Unlock()
		c.breakerSpan(w, "opened")
	}
	c.mu.Lock()
	dead := w.dead
	c.mu.Unlock()
	return dead
}

// breakerSpan emits one transition span.
func (c *coordinator) breakerSpan(w *workerState, transition string) {
	_, sp := telemetry.StartSpan(c.ctx, telemetry.StageBreaker)
	sp.Attr("worker", w.name)
	sp.Attr("transition", transition)
	sp.AttrInt("trips", int64(w.br.Trips()))
	sp.End()
}

// nextBatch blocks until w has work (or nothing remains): orphaned
// cells from dead workers first, then w's own shard, then a steal from
// the longest surviving queue, then straggler re-dispatch.  Every
// returned unit has been marked in-flight under the lock.
func (c *coordinator) nextBatch(w *workerState) []*unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if w.dead || c.undone == 0 {
			return nil
		}
		batch := takeEligible(&c.orphans, c.o.BatchSize)
		if len(batch) < c.o.BatchSize {
			batch = append(batch, takeEligible(&w.queue, c.o.BatchSize-len(batch))...)
		}
		if len(batch) == 0 {
			if victim := c.longestQueue(w); victim != nil {
				batch = takeEligible(&victim.queue, c.o.BatchSize)
				if n := len(batch); n > 0 {
					c.stats.Stolen += uint64(n)
					_, sp := telemetry.StartSpan(c.ctx, telemetry.StageSteal)
					sp.Attr("thief", w.name)
					sp.Attr("victim", victim.name)
					sp.AttrInt("cells", int64(n))
					sp.End()
				}
			}
		}
		if len(batch) == 0 {
			// Nothing undispatched anywhere: shadow an in-flight straggler
			// so one wedged worker cannot gate the tail of the sweep.
			for _, u := range c.units {
				if !u.done && u.inflight > 0 && u.dispatches < 2 {
					batch = append(batch, u)
					if len(batch) >= c.o.BatchSize {
						break
					}
				}
			}
			c.stats.Redispatched += uint64(len(batch))
		}
		if len(batch) > 0 {
			for _, u := range batch {
				u.inflight++
				u.dispatches++
				c.stats.Dispatched++
			}
			return batch
		}
		c.cond.Wait()
	}
}

// takeEligible removes up to n dispatchable units (not done, not in
// flight) from q, dropping finished ones as it goes.
func takeEligible(q *[]*unit, n int) []*unit {
	var out []*unit
	rest := (*q)[:0]
	for _, u := range *q {
		if u.done {
			continue
		}
		if u.inflight == 0 && len(out) < n {
			out = append(out, u)
			continue
		}
		rest = append(rest, u)
	}
	*q = rest
	return out
}

// longestQueue returns the live worker (other than w) with the most
// dispatchable cells, or nil.
func (c *coordinator) longestQueue(w *workerState) *workerState {
	var victim *workerState
	best := 0
	for _, ws := range c.workers {
		if ws == w || ws.dead {
			continue
		}
		n := 0
		for _, u := range ws.queue {
			if !u.done && u.inflight == 0 {
				n++
			}
		}
		if n > best {
			best, victim = n, ws
		}
	}
	return victim
}

// dispatch sends one batch and records its streamed results.  The
// batch context is registered on the worker so the heartbeat can abort
// a wedged request, and its deadline propagates to the worker through
// the batch API's ?timeout= (see Client.Batch).
func (c *coordinator) dispatch(w *workerState, batch []*unit) error {
	ctx, cancel := context.WithTimeout(w.ctx, c.o.RequestTimeout)
	defer cancel()
	c.mu.Lock()
	w.dispatchCancel = cancel
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		w.dispatchCancel = nil
		c.mu.Unlock()
	}()
	_, sp := telemetry.StartSpan(c.ctx, telemetry.StageDispatch)
	sp.Attr("worker", w.name)
	sp.AttrInt("cells", int64(len(batch)))
	defer sp.End()

	cells := make([]server.CellRequest, len(batch))
	for i, u := range batch {
		cells[i] = u.req
	}
	c.mu.Lock()
	c.stats.Batches++
	c.mu.Unlock()
	return w.cli.Batch(ctx, cells, func(item server.BatchItem) {
		c.record(batch, item)
	})
}

// record folds one streamed result in, first-result-wins.  The batch
// slot is cleared so a subsequent requeue (the stream died later) only
// requeues cells whose answer never arrived.
func (c *coordinator) record(batch []*unit, item server.BatchItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if item.Index < 0 || item.Index >= len(batch) || batch[item.Index] == nil {
		return
	}
	u := batch[item.Index]
	batch[item.Index] = nil
	u.inflight--
	if u.done {
		c.stats.Duplicates++
		c.cond.Broadcast()
		return
	}
	switch {
	case item.Status == "ok" && item.Result != nil && item.Result.Key != u.key:
		// A key mismatch past the schema handshake means the worker
		// computed a different cell than asked — never merge it.
		u.res = harness.CellResult{
			Status: harness.StatusFailed,
			Err: fmt.Sprintf("worker answered key %.12s for cell %.12s: schema skew",
				item.Result.Key, u.key),
		}
		c.stats.FailedCells++
	case item.Status == "ok" && item.Result != nil:
		u.res = harness.CellResult{
			Detail: item.Result.Stats.Detail(),
			Cost:   item.Result.Cost,
			Status: harness.StatusOK,
		}
		u.traceHit = item.Result.TraceHit
		if u.traceHit {
			c.stats.CacheHits++
		}
		c.stats.Completed++
		if c.o.Journal != nil {
			c.o.Journal.Append(Record{
				Key: u.key, Status: harness.StatusOK,
				TraceHit: u.traceHit, Stats: item.Result.Stats,
			})
		}
	default:
		st := harness.StatusFailed
		if strings.Contains(item.Error, sched.ErrCellTimeout.Error()) {
			st = harness.StatusTimeout
		}
		u.res = harness.CellResult{Status: st, Err: item.Error}
		c.stats.FailedCells++
	}
	u.done = true
	c.undone--
	c.noteUndoneLocked()
	c.cond.Broadcast()
}

// noteUndoneLocked closes the done channel once every cell has an
// answer, waking runners asleep in breaker cooldowns.  Caller holds
// the lock.
func (c *coordinator) noteUndoneLocked() {
	if c.undone == 0 {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// requeue returns a failed dispatch's unanswered cells to the orphan
// queue (unless another worker still shadows them in flight).
func (c *coordinator) requeue(batch []*unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range batch {
		if u == nil {
			continue
		}
		u.inflight--
		if !u.done && u.inflight == 0 {
			c.orphans = append(c.orphans, u)
		}
	}
	c.cond.Broadcast()
}

// workerLost declares w dead: its request context is cancelled (so an
// in-flight batch unblocks), its shard is orphaned to the survivors,
// and — when no workers remain — every undone cell degrades to failed.
func (c *coordinator) workerLost(w *workerState, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.dead {
		return
	}
	w.dead = true
	w.cancel()
	c.live--
	c.stats.WorkersLost++
	c.orphans = append(c.orphans, w.queue...)
	w.queue = nil
	if c.live == 0 {
		c.failUndone(fmt.Sprintf(
			"cluster: worker %s died (%v) with no live replacement", w.name, err))
	}
	c.cond.Broadcast()
}

// failUndone marks every not-yet-done cell failed with reason.  Caller
// holds the lock.
func (c *coordinator) failUndone(reason string) {
	for _, u := range c.units {
		if u.done {
			continue
		}
		u.done = true
		u.res = harness.CellResult{Status: harness.StatusFailed, Err: reason}
		c.stats.FailedCells++
		c.undone--
	}
	c.noteUndoneLocked()
}

// heartbeat probes every live worker's /readyz.  HeartbeatMisses
// consecutive failures trip the worker's circuit breaker and abort its
// in-flight batch, so a runner wedged mid-request on an unresponsive
// worker unblocks without waiting out the request timeout; the runner
// then owns recovery (cooldown, probe, half-open trial).  Workers
// whose breaker is already open are skipped — the runner is probing.
// A worker that quarantines from heartbeat trips is declared dead.
func (c *coordinator) heartbeat(ctx context.Context) {
	t := time.NewTicker(c.o.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, w := range c.workers {
			c.mu.Lock()
			dead := w.dead
			c.mu.Unlock()
			if dead || w.br.State() != BreakerClosed {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, c.o.HeartbeatEvery)
			err := w.cli.Ready(pctx)
			cancel()
			if err == nil {
				w.misses = 0
				continue
			}
			w.misses++
			if w.misses < c.o.HeartbeatMisses {
				continue
			}
			w.misses = 0
			state := w.br.Trip()
			c.mu.Lock()
			c.brOpened++
			c.stats.BreakerTrips++
			if state == BreakerQuarantined {
				c.brQuarantined++
				c.stats.Quarantined++
			}
			abort := w.dispatchCancel
			c.mu.Unlock()
			if abort != nil {
				abort()
			}
			if state == BreakerQuarantined {
				c.breakerSpan(w, "quarantined")
				c.workerLost(w, fmt.Errorf("quarantined after missed heartbeats: %w", err))
			} else {
				c.breakerSpan(w, "opened")
			}
		}
	}
}

// assemble folds the per-unit results back into plan order and builds
// the manifest through the same path RunSweep uses.  Coincident plan
// cells share one unit; the first bearer keeps the cell's cost and
// later ones report zero, matching local coalescing's exactly-once
// attribution.
func (c *coordinator) assemble() *harness.SweepManifest {
	_, sp := telemetry.StartSpan(c.ctx, telemetry.StageMerge)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	used := make(map[string]bool, len(c.units))
	collect := func(cells []harness.PlanCell) []harness.CellResult {
		out := make([]harness.CellResult, len(cells))
		for i, pc := range cells {
			r := c.units[pc.Key].res
			if used[pc.Key] {
				r.Cost = telemetry.StageCost{}
			}
			used[pc.Key] = true
			out[i] = r
		}
		return out
	}
	baselines := collect(c.plan.Baselines)
	points := collect(c.plan.Points)
	m := c.plan.Manifest(baselines, points)
	stats := c.stats
	stats.Retries = c.retries
	m.Cluster = &stats
	sp.AttrInt("cells", int64(stats.Cells))
	sp.AttrInt("failed", int64(stats.FailedCells))
	return m
}

// publish mirrors the final stats into the registry's cluster.*
// counters.
func (c *coordinator) publish() {
	reg := c.o.Registry
	if reg == nil {
		return
	}
	c.mu.Lock()
	s := c.stats
	s.Retries = c.retries
	c.mu.Unlock()
	reg.Counter("cluster.workers_lost").Add(s.WorkersLost)
	reg.Counter("cluster.dispatched").Add(s.Dispatched)
	reg.Counter("cluster.completed").Add(s.Completed)
	reg.Counter("cluster.failed").Add(s.FailedCells)
	reg.Counter("cluster.stolen").Add(s.Stolen)
	reg.Counter("cluster.redispatched").Add(s.Redispatched)
	reg.Counter("cluster.duplicates").Add(s.Duplicates)
	reg.Counter("cluster.resumed").Add(s.Resumed)
	reg.Counter("cluster.cache_hits").Add(s.CacheHits)
	reg.Counter("cluster.batches").Add(s.Batches)
	reg.Counter("cluster.http_retries").Add(s.Retries)
	c.mu.Lock()
	opened, reclosed, quarantined := c.brOpened, c.brReclosed, c.brQuarantined
	probes, probeFails := c.brProbes, c.brProbeFails
	c.mu.Unlock()
	reg.Counter("cluster.breaker.opened").Add(opened)
	reg.Counter("cluster.breaker.reclosed").Add(reclosed)
	reg.Counter("cluster.breaker.quarantined").Add(quarantined)
	reg.Counter("cluster.breaker.probes").Add(probes)
	reg.Counter("cluster.breaker.probe_failures").Add(probeFails)
	// The fleet's weakest link, in [0,1]: 1 = no breaker ever tripped.
	minHealth := 1.0
	for _, w := range c.workers {
		if h := w.br.Health(); h < minHealth {
			minHealth = h
		}
	}
	reg.Gauge("cluster.breaker.min_health").Set(minHealth)
}
