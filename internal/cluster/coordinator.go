// Package cluster runs a factorial sweep on a fleet: harness.RunSweep
// submits its cells to a coordinator that dispatches them to remote
// `bioperf5 serve` workers, and the manifest comes out byte-identical
// to a single-node run.
//
// The sweep is RunSweep's.  It plans the cells, submits them captures
// first through harness.Config.Submit, collects them in plan order and
// assembles the manifest; a worker only ever fills in the result of a
// content key RunSweep submitted.  Everything distributed about the run
// (which worker computed what, retries, deaths) lands in operational
// fields the determinism comparisons strip, so `sweep -workers a,b` and
// a local sweep agree on every byte that is science.
//
// What is left here is what is about a fleet:
//
//   - a version handshake that refuses a worker on another wire schema;
//   - one queue of submitted cells, deduplicated by content key; a
//     runner per worker takes cells nobody has in flight, keeping each
//     trace stream on the worker that captured it (see pick);
//   - once none are left, idle runners hedge in-flight stragglers
//     (bounded to two dispatches per cell) and the first result wins —
//     late duplicates are counted and dropped;
//   - a per-worker circuit breaker fed by dispatch failures and missed
//     heartbeats: a flapping worker is quarantined, its unanswered cells
//     are simply not in flight any more, and when no workers remain the
//     still-undone cells degrade to per-cell failed status instead of
//     aborting the sweep;
//   - a state directory that is a result cache like a local one: the
//     coordinator files each completed cell as per-seed result entries
//     and answers a cell whose entries are all there, so -resume
//     dispatches only what is missing.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"bioperf5/internal/cas"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/journal"
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
	// Retries is the per-dispatch HTTP retry budget; see Client.
	Retries int
	// StateDir, when set, is the sweep's state directory: a result
	// cache in the local engine's format.  Completed cells are filed
	// there per seed, and a cell whose entries are all there is
	// answered without dispatching it.  A parent's journal.jsonl in it
	// answers cells too; it is read, never written.
	StateDir string
	// Registry, when non-nil, receives the cluster.* counters.
	Registry *telemetry.Registry
	// HTTP overrides the transport shared by every worker client.
	HTTP *http.Client

	// The rest has one production value, the zero value's; only this
	// package's tests set it, to reach failure paths in milliseconds.

	// batchSize is how many cells one dispatch carries (default 4: small
	// enough to keep results flowing, large enough to amortize the HTTP
	// round trip).  retryBackoff and maxRetryAfter are Client's.
	batchSize                   int
	retryBackoff, maxRetryAfter time.Duration
	// breakerThreshold consecutive dispatch failures open a worker's
	// circuit breaker (default 3); breakerCooldown is the open-state
	// wait before a /readyz recovery probe (default 500ms);
	// quarantineTrips trips remove a flapping worker (default 3).
	breakerThreshold int
	breakerCooldown  time.Duration
	quarantineTrips  int
}

const (
	// requestTimeout bounds one batch round trip end to end.
	requestTimeout = 10 * time.Minute
	// heartbeatEvery is the readiness-probe period; heartbeatMisses
	// consecutive failed probes trip the worker's circuit breaker.
	heartbeatEvery  = time.Second
	heartbeatMisses = 3
)

// unit is one distinct content-addressed cell: several coincident plan
// cells (an application baseline that is also a grid point) share one
// unit, exactly as they coalesce in the local engine.
type unit struct {
	key        string
	req        server.CellRequest
	stream     harness.Stream
	done       bool
	inflight   int                // dispatches currently unanswered
	dispatches int                // total dispatch attempts, bounds hedging
	res        harness.CellResult // final once ready is closed
	ready      chan struct{}
	jobs       []sched.Job // the cell's per-seed jobs; only with a state directory
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	name   string
	cli    *Client
	br     *breaker
	ctx    context.Context
	cancel context.CancelFunc
	dead   bool
	misses int // consecutive heartbeat failures; heartbeat goroutine only

	// streams are the trace streams this worker has been sent cells of,
	// and so holds the traces of.  Guarded by the coordinator mutex.
	streams map[harness.Stream]bool

	// dispatchCancel aborts the batch currently in flight, if any —
	// the heartbeat uses it to unwedge a runner stuck talking to an
	// unresponsive worker without killing the worker for good.
	// Guarded by the coordinator mutex.
	dispatchCancel context.CancelFunc
}

type coordinator struct {
	o Options

	// running ends when RunSweep has returned or the run is cancelled:
	// runners waiting for work or asleep in a breaker cooldown exit, and
	// a batch in flight is left to finish.
	running context.Context

	mu      sync.Mutex
	cond    *sync.Cond
	ctx     context.Context  // the sweep's span context, from submit
	units   map[string]*unit // every submitted cell, by content key
	queue   []*unit          // the dispatchable ones, in submission order
	open    bool             // RunSweep is collecting: the queue is complete
	lost    string           // why nothing more can be dispatched, once so
	workers []*workerState
	live    int
	stats   harness.ClusterStats

	dir    *cas.Dir                       // result entries under StateDir; nil without one
	parent map[string]harness.KernelStats // a parent coordinator's journal, by cell key

	// breaker telemetry without a manifest field, published at the end
	brReclosed, brProbes, brProbeFails uint64
}

// Run executes one distributed sweep and returns its manifest.  It
// fails fast — before dispatching anything — when a worker is
// unreachable or speaks a different wire schema; mid-run worker loss
// degrades per-cell instead.
func Run(o Options) (*harness.SweepManifest, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if o.batchSize < 1 {
		o.batchSize = 4
	}
	ctx := o.Spec.Config.Context
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	c := &coordinator{o: o, ctx: ctx, units: make(map[string]*unit),
		dir:    cas.NewDir(sched.EntryKind, o.StateDir, new(telemetry.Counter), new(telemetry.Counter)),
		parent: parentJournal(o.StateDir)}
	c.cond = sync.NewCond(&c.mu)

	c.buildWorkers(runCtx)
	if err := c.handshake(runCtx); err != nil {
		return nil, err
	}

	var stop context.CancelFunc
	c.running, stop = context.WithCancel(runCtx)

	// Cancellation degrades, it does not abort: undone cells fail with
	// a clear reason and the manifest still ships.
	stopWatch := context.AfterFunc(runCtx, func() {
		c.mu.Lock()
		c.failUndone("cluster: sweep cancelled: " + context.Cause(runCtx).Error())
		c.mu.Unlock()
	})
	go c.heartbeat(runCtx)
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			c.runner(w)
		}(w)
	}

	o.Spec.Config.Submit = c.submit
	m, err := harness.RunSweep(o.Spec)

	stopWatch()
	c.mu.Lock()
	stop()
	c.cond.Broadcast()
	c.mu.Unlock()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	m.Cluster = c.publish()
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
			RetryBackoff:  c.o.retryBackoff,
			MaxRetryAfter: c.o.maxRetryAfter,
			OnRetry: func(time.Duration) {
				c.mu.Lock()
				c.stats.Retries++
				c.mu.Unlock()
			},
		}
		wctx, wcancel := context.WithCancel(runCtx)
		c.workers = append(c.workers, &workerState{
			name: base, cli: cli, ctx: wctx, cancel: wcancel,
			streams: make(map[harness.Stream]bool),
			br: newBreaker(breakerConfig{
				FailureThreshold: c.o.breakerThreshold,
				Cooldown:         c.o.breakerCooldown,
				QuarantineTrips:  c.o.quarantineTrips,
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
		v, err := w.cli.Version(ctx)
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

// submit is the fleet behind harness.Config.Submit.  Cells are
// deduplicated by content key — the first bearer of a shared key keeps
// the cell's cost and later ones report zero, matching local
// coalescing's exactly-once attribution — a cell the state directory
// holds is answered from it, and the rest join the queue.
func (c *coordinator) submit(ctx context.Context, pc harness.PlanCell) func() harness.CellResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctx = ctx
	if u, ok := c.units[pc.Key]; ok {
		return func() harness.CellResult {
			r := c.wait(u)
			r.Cost = telemetry.StageCost{}
			return r
		}
	}
	u := &unit{key: pc.Key, req: server.CellRequest(pc.Cell), stream: pc.Stream(), ready: make(chan struct{})}
	c.units[pc.Key] = u
	c.stats.Cells++
	var det *core.Detail
	if c.dir != nil {
		u.jobs = pc.Jobs()
		det = c.resumed(u)
	}
	switch {
	case det != nil:
		c.stats.Resumed++
		c.resolve(u, harness.CellResult{Detail: det, Status: harness.StatusOK})
	case c.lost != "":
		c.fail(u, harness.StatusFailed, c.lost)
	default:
		c.queue = append(c.queue, u)
	}
	return func() harness.CellResult { return c.wait(u) }
}

// resumed answers u from the state directory, or returns nil.  Its
// result entries answer it when every seed has a verified one: the
// detail is summed in seed order, as a local cell's is.  A partial hit
// is a miss, because the wire unit is the whole cell; then a parent
// journal's record of the cell answers it, if there is one.
func (c *coordinator) resumed(u *unit) *core.Detail {
	det := &core.Detail{}
	for _, j := range u.jobs {
		rep, ok := sched.LoadResult(c.dir, j.Hash(), j.Key())
		if !ok {
			if ks, ok := c.parent[u.key]; ok {
				return ks.Detail()
			}
			return nil
		}
		det.Seeds = append(det.Seeds, core.SeedReport{Seed: j.Seed, Counters: rep.Counters, Stalls: rep.Stalls})
		det.Aggregate = det.Aggregate.Add(rep)
	}
	return det
}

// file writes a completed cell to the state directory as one result
// entry per seed.  A result whose seeds are not the cell's, in order,
// is not filed.  A failed write is not a cell failure: the result is
// sound, and the next resume only dispatches the cell again.
func (c *coordinator) file(u *unit, ks harness.KernelStats) {
	if !slices.EqualFunc(ks.Seeds, u.jobs, func(s harness.SeedStats, j sched.Job) bool { return s.Seed == j.Seed }) {
		return
	}
	for i, j := range u.jobs {
		sched.StoreResult(c.dir, j.Hash(), j.Key(),
			cpu.Report{Counters: ks.Seeds[i].Counters, Stalls: ks.Seeds[i].Stalls})
	}
}

// parentJournal reads the journal.jsonl a parent coordinator left in
// dir, without writing it: each ok record that carries stats answers
// its cell key.  Damaged lines and records without stats (a parent
// local engine's {"hash",…} lines) answer nothing, and a missing or
// unreadable file is an empty journal.
func parentJournal(dir string) map[string]harness.KernelStats {
	if dir == "" {
		return nil
	}
	b, _ := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	done := make(map[string]harness.KernelStats)
	for _, line := range journal.Scan(b).Good {
		var rec struct {
			Key    string               `json:"key"`
			Status string               `json:"status"`
			Stats  *harness.KernelStats `json:"stats"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Key != "" &&
			rec.Status == harness.StatusOK && rec.Stats != nil {
			done[rec.Key] = *rec.Stats
		}
	}
	return done
}

// wait blocks for u's answer.  The first wait opens the queue: RunSweep
// has submitted everything by then, so runners fill their batches and
// hedge only when nothing undispatched is left.
func (c *coordinator) wait(u *unit) harness.CellResult {
	c.mu.Lock()
	if !c.open {
		c.open = true
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	<-u.ready
	return u.res
}

// resolve gives u its final answer.  Caller holds the lock.
func (c *coordinator) resolve(u *unit, res harness.CellResult) {
	u.res, u.done = res, true
	close(u.ready)
}

// fail resolves u as a degraded cell.  Caller holds the lock.
func (c *coordinator) fail(u *unit, status, reason string) {
	c.stats.FailedCells++
	c.resolve(u, harness.CellResult{Status: status, Err: reason})
}

// runner is one worker's dispatch loop: wait until the breaker admits
// dispatch, pull a batch, send it, record the stream, repeat until the
// sweep is over or the worker is quarantined.  A dispatch failure feeds
// the circuit breaker, which decides between retry-after-cooldown and
// quarantine.
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
		if err := c.dispatch(w, batch); err != nil {
			c.requeue(batch)
			c.dispatchFailed(w, err)
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
// false when the worker is quarantined (a dead worker is) or the sweep
// is over.
func (c *coordinator) awaitDispatchable(w *workerState) bool {
	for {
		switch w.br.State() {
		case BreakerClosed, BreakerHalfOpen:
			return true
		case BreakerQuarantined:
			return false
		}
		if due, rem := w.br.ProbeDue(); !due {
			if w.cli.sleep(c.running, rem) != nil {
				return false
			}
			continue
		}
		pctx, cancel := context.WithTimeout(w.ctx, heartbeatEvery)
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

// dispatchFailed feeds one dispatch failure to w's breaker and accounts
// the trip when that failure is the one that opened or quarantined it.
func (c *coordinator) dispatchFailed(w *workerState, err error) {
	before := w.br.State()
	if state := w.br.Failure(); state != before && state != BreakerClosed {
		c.tripped(w, state, fmt.Errorf(
			"quarantined after %d breaker trips, last error: %w", w.br.Trips(), err))
	}
}

// tripped accounts one trip of w's breaker that left it in state: the
// counters, the transition span and, on quarantine, the loss of the
// worker, for which err is the reason.
func (c *coordinator) tripped(w *workerState, state BreakerState, err error) {
	c.mu.Lock()
	c.stats.BreakerTrips++
	if state == BreakerQuarantined {
		c.stats.Quarantined++
	}
	c.mu.Unlock()
	if state != BreakerQuarantined {
		c.breakerSpan(w, "opened")
		return
	}
	c.breakerSpan(w, "quarantined")
	c.workerLost(w, err)
}

// breakerSpan emits one transition span.
func (c *coordinator) breakerSpan(w *workerState, transition string) {
	c.mu.Lock()
	ctx := c.ctx
	c.mu.Unlock()
	_, sp := telemetry.StartSpan(ctx, telemetry.StageBreaker)
	sp.Attr("worker", w.name)
	sp.Attr("transition", transition)
	sp.AttrInt("trips", int64(w.br.Trips()))
	sp.End()
}

// nextBatch blocks until w has work or its runner should exit.  Every
// returned unit has been marked in-flight under the lock, and w holds
// its stream; taking a stream another live worker holds is a steal.
func (c *coordinator) nextBatch(w *workerState) []*unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if w.dead || c.running.Err() != nil {
			return nil
		}
		others := make(map[harness.Stream]bool)
		for _, o := range c.workers {
			if o != w && !o.dead {
				for s := range o.streams {
					others[s] = true
				}
			}
		}
		if batch, hedge := pick(c.queue, c.o.batchSize, c.live, w.streams, others); c.open && len(batch) > 0 {
			if hedge {
				c.stats.Redispatched += uint64(len(batch))
			}
			for _, u := range batch {
				u.inflight++
				u.dispatches++
				c.stats.Dispatched++
				if !w.streams[u.stream] {
					w.streams[u.stream] = true
					if others[u.stream] {
						c.stats.Stolen++
					}
				}
			}
			return batch
		}
		c.cond.Wait()
	}
}

// pick chooses a runner's next batch: up to n cells by the first rule
// that yields any.  A worker holds the streams it has been sent cells
// of, and so their traces; mine are this worker's, others those of the
// other live workers.  Rules 1–3 take cells neither done nor in flight,
// and no more than a live worker's share of them, so the last cells of
// a sweep are spread over the fleet instead of queued behind one worker.
//
//  1. Cells of streams no live worker holds, in queue order; the
//     capturing cells are first in the queue, so they go out first.
//  2. Cells of this worker's streams, in queue order.
//  3. A steal: cells of the one stream with the most of them left.
//  4. A hedge: in-flight cells dispatched fewer than twice, this
//     worker's streams first, so one wedged worker cannot gate the
//     tail of the sweep and no cell occupies more than two.
func pick(queue []*unit, n, live int, mine, others map[harness.Stream]bool) (batch []*unit, hedge bool) {
	limit := n
	take := func(ok func(*unit) bool) bool {
		for _, u := range queue {
			if len(batch) < limit && !u.done && ok(u) {
				batch = append(batch, u)
			}
		}
		return len(batch) > 0
	}
	idle := func(u *unit) bool { return u.inflight == 0 }
	left := make(map[harness.Stream]int)
	var steal harness.Stream
	undispatched := 0
	for _, u := range queue {
		if !u.done && idle(u) {
			undispatched++
			if left[u.stream]++; left[u.stream] > left[steal] {
				steal = u.stream
			}
		}
	}
	limit = min(n, max(1, (undispatched+live-1)/live))
	if take(func(u *unit) bool { return idle(u) && !mine[u.stream] && !others[u.stream] }) ||
		take(func(u *unit) bool { return idle(u) && mine[u.stream] }) ||
		take(func(u *unit) bool { return idle(u) && u.stream == steal }) {
		return batch, false
	}
	limit = n
	straggler := func(u *unit) bool { return u.inflight > 0 && u.dispatches < 2 }
	take(func(u *unit) bool { return straggler(u) && mine[u.stream] })
	take(func(u *unit) bool { return straggler(u) && !mine[u.stream] })
	return batch, len(batch) > 0
}

// dispatch sends one batch and records its streamed results.  The
// batch context is registered on the worker so the heartbeat can abort
// a wedged request, and its deadline propagates to the worker through
// the batch API's ?timeout= (see Client.Batch).
func (c *coordinator) dispatch(w *workerState, batch []*unit) error {
	ctx, cancel := context.WithTimeout(w.ctx, requestTimeout)
	defer cancel()
	c.mu.Lock()
	w.dispatchCancel = cancel
	c.stats.Batches++
	spanCtx := c.ctx
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		w.dispatchCancel = nil
		c.mu.Unlock()
	}()
	_, sp := telemetry.StartSpan(spanCtx, telemetry.StageDispatch)
	sp.Attr("worker", w.name)
	sp.AttrInt("cells", int64(len(batch)))
	defer sp.End()

	cells := make([]server.CellRequest, len(batch))
	for i, u := range batch {
		cells[i] = u.req
	}
	return w.cli.Batch(ctx, cells, func(item server.BatchItem) {
		c.record(batch, item)
	})
}

// record folds one streamed result in, first-result-wins, and files a
// completed cell in the state directory outside the lock.
func (c *coordinator) record(batch []*unit, item server.BatchItem) {
	if u := c.fold(batch, item); u != nil && c.dir != nil {
		c.file(u, item.Result.Stats)
	}
}

// fold resolves the unit item answers and returns it when it completed.
// The batch slot is cleared so a subsequent requeue (the stream died
// later) only releases cells whose answer never arrived.
func (c *coordinator) fold(batch []*unit, item server.BatchItem) *unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	if item.Index < 0 || item.Index >= len(batch) || batch[item.Index] == nil {
		return nil
	}
	u := batch[item.Index]
	batch[item.Index] = nil
	u.inflight--
	if u.done {
		c.stats.Duplicates++
		return nil
	}
	switch {
	case item.Status == "ok" && item.Result != nil && item.Result.Key != u.key:
		// A key mismatch past the schema handshake means the worker
		// computed a different cell than asked — never merge it.
		c.fail(u, harness.StatusFailed, fmt.Sprintf(
			"worker answered key %.12s for cell %.12s: schema skew", item.Result.Key, u.key))
	case item.Status == "ok" && item.Result != nil:
		if item.Result.TraceHit {
			c.stats.CacheHits++
		}
		c.stats.Completed++
		c.resolve(u, harness.CellResult{
			Detail: item.Result.Stats.Detail(),
			Cost:   item.Result.Cost,
			Status: harness.StatusOK,
		})
		return u
	default:
		st := harness.StatusFailed
		if strings.Contains(item.Error, sched.ErrCellTimeout.Error()) {
			st = harness.StatusTimeout
		}
		c.fail(u, st, item.Error)
	}
	return nil
}

// requeue takes a failed dispatch's unanswered cells out of flight;
// those nobody else has in flight are first in line again.
func (c *coordinator) requeue(batch []*unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range batch {
		if u != nil {
			u.inflight--
		}
	}
	c.cond.Broadcast()
}

// workerLost declares w dead: its request context is cancelled (so an
// in-flight batch unblocks) and — when no workers remain — every
// undone cell degrades to failed.
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
	if c.live == 0 {
		c.failUndone(fmt.Sprintf(
			"cluster: worker %s died (%v) with no live replacement", w.name, err))
	}
}

// failUndone fails every not-yet-done cell, and every cell submitted
// from now on, with reason.  Caller holds the lock.
func (c *coordinator) failUndone(reason string) {
	c.lost = reason
	for _, u := range c.queue {
		if !u.done {
			c.fail(u, harness.StatusFailed, reason)
		}
	}
}

// heartbeat probes every live worker's /readyz.  heartbeatMisses
// consecutive failures trip the worker's circuit breaker and abort its
// in-flight batch, so a runner wedged mid-request on an unresponsive
// worker unblocks without waiting out the request timeout; the runner
// then owns recovery (cooldown, probe, half-open trial).  Workers
// whose breaker is already open are skipped — the runner is probing.
// A worker that quarantines from heartbeat trips is declared dead.
func (c *coordinator) heartbeat(ctx context.Context) {
	t := time.NewTicker(heartbeatEvery)
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
			pctx, cancel := context.WithTimeout(ctx, heartbeatEvery)
			err := w.cli.Ready(pctx)
			cancel()
			if err == nil {
				w.misses = 0
				continue
			}
			w.misses++
			if w.misses < heartbeatMisses {
				continue
			}
			w.misses = 0
			state := w.br.Trip()
			c.mu.Lock()
			abort := w.dispatchCancel
			c.mu.Unlock()
			if abort != nil {
				abort()
			}
			c.tripped(w, state, fmt.Errorf("quarantined after missed heartbeats: %w", err))
		}
	}
}

// publish snapshots the final stats and mirrors them into the
// registry's cluster.* counters.
func (c *coordinator) publish() *harness.ClusterStats {
	c.mu.Lock()
	s := c.stats
	reclosed, probes, probeFails := c.brReclosed, c.brProbes, c.brProbeFails
	c.mu.Unlock()
	reg := c.o.Registry
	if reg == nil {
		return &s
	}
	reg.Counter("cluster.workers_lost").Add(s.WorkersLost)
	reg.Counter("cluster.dispatched").Add(s.Dispatched)
	reg.Counter("cluster.completed").Add(s.Completed)
	reg.Counter("cluster.failed").Add(s.FailedCells)
	reg.Counter("cluster.redispatched").Add(s.Redispatched)
	reg.Counter("cluster.duplicates").Add(s.Duplicates)
	reg.Counter("cluster.resumed").Add(s.Resumed)
	reg.Counter("cluster.cache_hits").Add(s.CacheHits)
	reg.Counter("cluster.batches").Add(s.Batches)
	reg.Counter("cluster.http_retries").Add(s.Retries)
	reg.Counter("cluster.breaker.opened").Add(s.BreakerTrips)
	reg.Counter("cluster.breaker.reclosed").Add(reclosed)
	reg.Counter("cluster.breaker.quarantined").Add(s.Quarantined)
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
	return &s
}
