package sched

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bioperf5/internal/cas"
	"bioperf5/internal/cpu"
	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// Options configures an Engine.  The zero value is usable: GOMAXPROCS
// workers, no disk store.  Every engine memoizes its results and
// coalesces identical submissions in memory.
type Options struct {
	// Workers is the pool size; values < 1 mean GOMAXPROCS.  The job
	// queue holds 4x Workers, so every worker has the next job waiting
	// without a sweep's whole grid sitting in memory; Submit blocks
	// (backpressure) once it is full.
	Workers int
	// CacheDir, when non-empty, adds a content-addressed on-disk store
	// under that directory so results survive across processes.
	// Entries are checksummed; corrupted files are recomputed, never
	// trusted.
	CacheDir string
	// CacheUpstream, when non-empty, is the base URL of a peer bioperf5
	// server (e.g. "http://hub:8077") whose /v1/cache and /v1/traces
	// endpoints act as a shared remote tier: probed after a local disk
	// miss, pushed to after a local compute or capture.  Strictly
	// best-effort — any upstream failure degrades to a miss — and every
	// fetched entry is re-verified against its content address before
	// use.
	CacheUpstream string
	// CacheTransport, when non-nil, overrides the HTTP transport used
	// by the remote cache and trace tiers — the chaos suite plugs its
	// deterministic fault injector in here.
	CacheTransport http.RoundTripper
	// Registry receives the engine's telemetry (sched.* metrics).  Nil
	// gets a private registry, readable via Engine.Registry.
	Registry *telemetry.Registry

	// Retries is the per-job retry budget: a job failing with a
	// retryable error (panic, transient error, cell timeout, injected
	// fault) is re-executed up to Retries more times.  0 disables
	// retries; permanent errors (an unknown application, a dead
	// submission context) are never retried.  The first retry waits
	// retryBackoff, and the wait doubles every attempt, capped at 64x.
	Retries int
	// CellTimeout bounds one simulation attempt.  An attempt exceeding
	// it fails that cell with ErrCellTimeout (retryable) instead of
	// wedging the worker; 0 means no deadline.  The abandoned attempt's
	// goroutine is left to finish in the background — the simulator has
	// no preemption points — so its result is discarded, never stored.
	CellTimeout time.Duration
	// Injector, when non-nil, is consulted at the job-execute and
	// disk-store points and the decided faults are injected — the
	// chaos-testing hook behind the BIOPERF5_FAULTS CLI spec.
	Injector fault.Injector

	// Traces, when non-nil, is the trace store jobs capture into and
	// replay from; tests inject a pre-warmed store through it.  Nil
	// builds an engine-owned store: in-memory with the default
	// byte budget, backed by CacheDir/traces when CacheDir is set, and
	// publishing trace.* metrics into the engine's registry.
	Traces *trace.Store

	budget int64 // bytes of the result memo; <= 0 means resultBudget (tests lower it)
}

// resultBudget bounds the engine's memo of completed results, each
// counted as resultBytes: 16 MiB holds 16 384 of them.  `run all -seeds
// 1,…,30` leaves 1 560 distinct cells resident and the default sweep 48,
// so neither evicts; a long-lived `serve` forgets its least recently
// used cells, which its disk tier, if any, still holds.
const (
	resultBudget = 16 << 20
	resultBytes  = 1 << 10 // a Future with its report, key and LRU links, rounded up
)

// retryBackoff is the delay before a job's first retry.  The schedule
// is deliberately jitter-free so runs reproduce exactly.
const retryBackoff = 5 * time.Millisecond

// ErrCellTimeout marks a simulation attempt that exceeded
// Options.CellTimeout.  It is retryable: a transient hang clears on
// retry, and a deterministic one exhausts the budget and degrades the
// cell rather than the process.
var ErrCellTimeout = errors.New("cell deadline exceeded")

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// retryable reports whether a failed attempt is worth repeating.
func retryable(err error) bool {
	var p permanentError
	return !errors.As(err, &p)
}

// Engine is a parallel, cache-aware job executor.  All methods are
// safe for concurrent use.
type Engine struct {
	opts   Options
	reg    *telemetry.Registry
	disk   *cas.Dir    // result entries under CacheDir; nil without one
	remote *cas.Client // the upstream hub's /v1/cache; nil without one
	traces *trace.Store

	// compute executes one job under the task's context (which carries
	// the caller's tracer), reporting the result, whether an existing
	// trace or cached result served it, and the per-stage cost
	// breakdown; tests substitute a stub.
	compute func(context.Context, Job) (JobResult, error)

	memo  *cas.Memo[*Future] // completed results by content hash
	queue chan *task
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// telemetry handles, resolved once
	mSubmitted, mComputed, mFailed, mPanics    *telemetry.Counter
	mMemHits, mDiskHits, mDiskWrites, mCorrupt *telemetry.Counter
	mRetries, mTimeouts, mInjected             *telemetry.Counter
	gWorkers, gQueuePeak                       *telemetry.Gauge
	hQueueWait                                 *telemetry.Histogram
}

// task is one queued unit: the job, its future, the memo fill it leads,
// and the submission context (cancellation and deadline are honoured up
// to the moment the simulation starts).
type task struct {
	job      Job
	hash     string
	fut      *Future
	flight   *cas.Flight[*Future]
	ctx      context.Context
	enqueued time.Time
}

// Future is the pending result of a submitted job.  It holds no
// context, so a memoized one pins no request.
type Future struct {
	done chan struct{}
	res  JobResult
	err  error
	// orphaned records that the submission the computation ran under
	// had given up by the time it completed (see follow).
	orphaned bool
}

// Wait blocks until the job completes and returns its result.  Waiting
// more than once is allowed and returns the same values.
func (f *Future) Wait() (cpu.Report, error) {
	<-f.done
	return f.res.Report, f.err
}

// TraceHit blocks until the job completes and reports whether it was
// served without a fresh functional capture: a trace replay hit, a
// disk-cached result, or coalescing onto another submission's
// computation.
func (f *Future) TraceHit() bool {
	<-f.done
	return f.res.TraceHit
}

// Cost blocks until the job completes and returns its per-stage time
// breakdown (queue wait, compile, capture, replay, cache I/O).  A
// coalesced submission reports the cost of the computation it joined.
func (f *Future) Cost() telemetry.StageCost {
	<-f.done
	return f.res.Cost
}

func (f *Future) complete(res JobResult, err error) {
	f.res, f.err = res, err
	close(f.done)
}

// New starts an engine.  Close releases its workers.
func New(o Options) *Engine {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e := &Engine{
		opts:  o,
		reg:   reg,
		queue: make(chan *task, 4*o.Workers),

		mSubmitted:  reg.Counter("sched.jobs.submitted"),
		mComputed:   reg.Counter("sched.jobs.computed"),
		mFailed:     reg.Counter("sched.jobs.failed"),
		mPanics:     reg.Counter("sched.jobs.panics"),
		mMemHits:    reg.Counter("sched.cache.memory.hits"),
		mDiskHits:   reg.Counter("sched.cache.disk.hits"),
		mDiskWrites: reg.Counter("sched.cache.disk.writes"),
		mCorrupt:    reg.Counter("sched.cache.disk.corrupt"),
		mRetries:    reg.Counter("sched.jobs.retries"),
		mTimeouts:   reg.Counter("sched.jobs.timeouts"),
		mInjected:   reg.Counter("sched.faults.injected"),
		gWorkers:    reg.Gauge("sched.workers"),
		gQueuePeak:  reg.Gauge("sched.queue.peak"),
		hQueueWait:  reg.Histogram("sched.queue.wait_us", nil),
	}
	e.traces = o.Traces
	if e.traces == nil {
		topts := trace.StoreOptions{Registry: reg, Injector: o.Injector,
			Upstream: o.CacheUpstream, Transport: o.CacheTransport}
		if o.CacheDir != "" {
			topts.Dir = filepath.Join(o.CacheDir, "traces")
		}
		e.traces = trace.NewStore(topts)
	}
	e.remote = cas.NewClient(EntryKind, o.CacheUpstream, o.CacheTransport, reg, "sched.cache.remote")
	e.compute = func(ctx context.Context, j Job) (JobResult, error) { return j.run(ctx, e.traces) }
	if o.budget <= 0 {
		o.budget = resultBudget
	}
	e.memo = cas.NewMemo(o.budget, func(*Future) int64 { return resultBytes },
		reg.Counter("sched.cache.memory.evictions"))
	e.disk = cas.NewDir(EntryKind, o.CacheDir, e.mDiskWrites, e.mCorrupt)
	e.gWorkers.Set(float64(o.Workers))
	for i := 0; i < o.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Registry returns the registry the engine publishes into.
func (e *Engine) Registry() *telemetry.Registry { return e.reg }

// TraceStore returns the trace store the engine's jobs capture into
// and replay from.
func (e *Engine) TraceStore() *trace.Store { return e.traces }

// Results returns the engine's on-disk result entries — what a hub
// serves under /v1/cache.  Nil (the absent tier) without a CacheDir.
func (e *Engine) Results() *cas.Dir { return e.disk }

// Close stops accepting jobs and waits for queued work to drain.
func (e *Engine) Close() {
	e.Drain(context.Background())
}

// Drain is the engine's single shutdown entry point: it stops intake
// (later Submits fail fast with "engine closed"), waits for every
// queued and in-flight job to finish, and flushes the disk cache
// directory so persisted results survive the process.  Both `sweep`
// and `serve` shut down through it.  Drain is idempotent and safe to
// call concurrently with Close.  If ctx expires first, Drain returns
// the context's error; the workers keep finishing in the background
// and a later Drain call can wait for them again.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.disk.Sync()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sched: drain: %w", ctx.Err())
	}
}

// Submit schedules a job and returns its future.  Identical jobs
// (equal content hashes) share one computation and one cache entry;
// only the first submission enqueues work.  Submit blocks when the
// bounded queue is full.  The context covers queue wait: a job whose
// context is cancelled or past its deadline before a worker picks it
// up fails with the context's error instead of simulating.
func (e *Engine) Submit(ctx context.Context, j Job) *Future {
	f, _ := e.SubmitTracked(ctx, j)
	return f
}

// SubmitTracked is Submit plus a coalescing report: the second return
// is true when the submission was served by the in-memory layer — it
// joined an in-flight computation of the same cell or hit the memoized
// result — without enqueuing any new work.  The server's batch and
// cell endpoints use it to count `server.cells.coalesced`.
func (e *Engine) SubmitTracked(ctx context.Context, j Job) (*Future, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mSubmitted.Add(1)
	hash := j.Hash()

	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		f := &Future{done: make(chan struct{})}
		f.complete(JobResult{}, fmt.Errorf("sched: engine closed"))
		return f, false
	}
	f, fl, lead := e.memo.Join(hash)
	if !lead {
		e.mMemHits.Add(1)
		if fl == nil { // memoized
			return f, true
		}
		return e.follow(ctx, j, fl), true
	}
	t := &task{job: j, hash: hash, fut: &Future{done: make(chan struct{})},
		flight: fl, ctx: ctx, enqueued: time.Now()}
	select {
	case e.queue <- t:
	case <-ctx.Done():
		// Blocked on a full queue and the caller gave up: fail the cell
		// with the context's error, which also withdraws its fill (it
		// was never enqueued, so a later submission must compute it).
		e.mFailed.Add(1)
		e.finish(t, JobResult{}, fmt.Errorf("sched: job %s: %w", t.describe(), ctx.Err()))
		return t.fut, false
	}
	if depth := float64(len(e.queue)); depth > e.gQueuePeak.Value() {
		e.gQueuePeak.Set(depth)
	}
	return t.fut, false
}

// follow returns the future of a submission that coalesced onto an
// in-flight computation, which lives and dies by its first submitter's
// context.  If it fails orphaned and this context is live, the failure
// was another request's cancellation or deadline, so the cell is
// submitted again (failures are not memoized, so that computes).  The
// goroutine ends with the flight and the re-submission; workers complete
// every future they are handed.
func (e *Engine) follow(ctx context.Context, j Job, fl *cas.Flight[*Future]) *Future {
	f := &Future{done: make(chan struct{})}
	go func() {
		lead, _ := fl.Wait()
		<-lead.done
		if lead.err != nil && lead.orphaned && ctx.Err() == nil {
			lead, _ = e.SubmitTracked(ctx, j)
			<-lead.done
		}
		f.complete(lead.res, lead.err)
	}()
	return f
}

// Run is Submit + Wait.
func (e *Engine) Run(ctx context.Context, j Job) (cpu.Report, error) {
	return e.Submit(ctx, j).Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.queue {
		wait := time.Since(t.enqueued)
		e.hQueueWait.Observe(uint64(wait / time.Microsecond))
		// The queue span is retroactive (its duration was only
		// measurable at dequeue) and a sibling of the execute span:
		// both attach under whatever the submitter's current span was.
		telemetry.TracerFrom(t.ctx).Record(t.ctx, telemetry.StageQueue, t.enqueued, wait)
		ctx, sp := telemetry.StartSpan(t.ctx, telemetry.StageExecute)
		sp.Attr("app", t.job.App)
		sp.Attr("variant", t.job.Variant.String())
		sp.AttrInt("seed", t.job.Seed)
		res, err := e.execute(ctx, t)
		sp.AttrBool("trace_hit", res.TraceHit)
		sp.End()
		res.Cost.QueueNS = wait.Nanoseconds()
		res.Cost.TotalNS = time.Since(t.enqueued).Nanoseconds()
		if err != nil {
			e.mFailed.Add(1)
		}
		e.finish(t, res, err)
	}
}

// finish ends a task: its memo fill first — a success stays resident, a
// failure is forgotten before anyone can see it (a cancelled context
// would otherwise poison the cell for later submissions) — then its
// future.
func (e *Engine) finish(t *task, res JobResult, err error) {
	t.fut.orphaned = t.ctx.Err() != nil
	e.memo.Finish(t.flight, t.fut, err)
	t.fut.complete(res, err)
}

// describe names the task's cell for error messages.
func (t *task) describe() string {
	return fmt.Sprintf("%s/%s seed %d", t.job.App, t.job.Variant, t.job.Seed)
}

// execute resolves one task: context check, disk cache probe, then up
// to 1+Retries simulation attempts — each under panic recovery and the
// cell-deadline watchdog — then disk write-back.  The context carries
// the worker's execute span; the returned cost has its cache stage
// filled in (queue and total are the worker's).
func (e *Engine) execute(ctx context.Context, t *task) (JobResult, error) {
	if cerr := t.ctx.Err(); cerr != nil {
		return JobResult{}, fmt.Errorf("sched: job %s: %w", t.describe(), cerr)
	}
	var cost telemetry.StageCost
	if e.disk != nil || e.remote != nil {
		probeStart := time.Now()
		_, sp := telemetry.StartSpan(ctx, telemetry.StageCacheRead)
		var raw []byte
		key := t.job.Key()
		cached, ok := LoadResult(e.disk, t.hash, key)
		if ok {
			e.mDiskHits.Add(1)
		} else {
			// Local miss (a corrupt entry is one: counted and removed):
			// ask the shared remote tier before simulating.  The
			// submission context bounds the round trip so a cancelled
			// sweep never hangs on an upstream.
			decode := decodeInto(&cached, t.hash, key)
			ok = e.remote.Get(t.ctx, t.hash, func(b []byte) error { raw = b; return decode(b) })
		}
		sp.AttrBool("hit", ok)
		sp.End()
		cost.CacheNS += time.Since(probeStart).Nanoseconds()
		if ok {
			if raw != nil {
				// Write through to the local disk tier so the next
				// process on this node does not repeat the round trip.
				e.disk.Write(t.hash, raw)
			}
			// A cache-served result needed no fresh capture either.
			return JobResult{Report: cached, TraceHit: true, Cost: cost}, nil
		}
	}
	var err error
	for attempt := 0; ; attempt++ {
		var res JobResult
		res, err = e.attempt(ctx, t, attempt)
		if err == nil {
			res.Cost.Add(cost)
			res.Cost.CacheNS += e.persist(ctx, t, res.Report, attempt)
			return res, nil
		}
		if attempt >= e.opts.Retries || !retryable(err) || t.ctx.Err() != nil {
			break
		}
		e.mRetries.Add(1)
		if !e.backoff(t.ctx, attempt) {
			break
		}
	}
	if e.opts.Retries > 0 && retryable(err) {
		err = fmt.Errorf("sched: job %s: giving up after %d attempts: %w",
			t.describe(), e.opts.Retries+1, err)
	}
	return JobResult{Cost: cost}, err
}

// attempt runs one simulation try in its own goroutine so the worker
// can enforce the cell deadline and honour cancellation mid-run.  An
// abandoned attempt keeps running in the background; its result lands
// in a buffered channel and is discarded.
func (e *Engine) attempt(ctx context.Context, t *task, attempt int) (JobResult, error) {
	type outcome struct {
		res JobResult
		err error
	}
	actx, sp := telemetry.StartSpan(ctx, telemetry.StageAttempt)
	sp.AttrInt("attempt", int64(attempt))
	defer sp.End()
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.mPanics.Add(1)
				done <- outcome{err: fmt.Errorf("sched: job %s panicked: %v", t.describe(), r)}
			}
		}()
		if inj := e.opts.Injector; inj != nil {
			switch d := inj.Decide(fault.SiteExecute, t.hash, attempt); d.Kind {
			case fault.Panic:
				e.mInjected.Add(1)
				panic("injected fault")
			case fault.Error:
				e.mInjected.Add(1)
				done <- outcome{err: fmt.Errorf("sched: job %s: injected transient error", t.describe())}
				return
			case fault.Cancel:
				e.mInjected.Add(1)
				done <- outcome{err: fmt.Errorf("sched: job %s: injected cancellation: %w",
					t.describe(), context.Canceled)}
				return
			case fault.Hang:
				e.mInjected.Add(1)
				time.Sleep(d.Delay)
			}
		}
		e.mComputed.Add(1)
		res, err := e.compute(actx, t.job)
		done <- outcome{res: res, err: err}
	}()
	var expired <-chan time.Time
	if e.opts.CellTimeout > 0 {
		timer := time.NewTimer(e.opts.CellTimeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-done:
		return o.res, o.err
	case <-expired:
		e.mTimeouts.Add(1)
		return JobResult{}, fmt.Errorf("sched: job %s: %w (budget %v)",
			t.describe(), ErrCellTimeout, e.opts.CellTimeout)
	case <-t.ctx.Done():
		return JobResult{}, permanentError{fmt.Errorf("sched: job %s: %w",
			t.describe(), t.ctx.Err())}
	}
}

// backoff sleeps the deterministic capped-exponential delay before the
// next attempt; it returns false if the submission context died first.
func (e *Engine) backoff(ctx context.Context, attempt int) bool {
	d := 64 * retryBackoff
	if attempt < 6 {
		d = retryBackoff << uint(attempt)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// persist writes one computed result to the disk store, applying an
// injected corruption afterwards when the fault plan says so (the
// in-process future still holds the sound result; the damage is only
// visible to a later process, which must detect and heal it).  It
// returns the nanoseconds spent on the write-back.
func (e *Engine) persist(ctx context.Context, t *task, rep cpu.Report, attempt int) int64 {
	if e.disk == nil && e.remote == nil {
		return 0
	}
	start := time.Now()
	_, sp := telemetry.StartSpan(ctx, telemetry.StageCacheWr)
	defer sp.End()
	// A failed write is not a job failure: the result is sound, only
	// the cross-process cache misses next time.
	b, err := StoreResult(e.disk, t.hash, t.job.Key(), rep)
	if b != nil {
		// Share the fresh result with the fleet, best-effort: a failed
		// push only costs the peers a recompute.
		e.remote.Put(t.ctx, t.hash, b)
	}
	if err == nil {
		if inj := e.opts.Injector; inj != nil {
			if d := inj.Decide(fault.SiteStore, t.hash, attempt); d.Kind == fault.Corrupt {
				e.mInjected.Add(1)
				e.disk.Tear(t.hash)
			}
		}
	}
	return time.Since(start).Nanoseconds()
}

// Stats is a point-in-time view of the engine's counters.
type Stats struct {
	Submitted   uint64 `json:"submitted"`       // jobs submitted
	Computed    uint64 `json:"computed"`        // jobs actually simulated
	MemoryHits  uint64 `json:"memory_hits"`     // submits resolved by the in-memory cache
	DiskHits    uint64 `json:"disk_hits"`       // jobs resolved by the on-disk store
	DiskWrites  uint64 `json:"disk_writes"`     // results persisted to disk
	DiskCorrupt uint64 `json:"disk_corrupt"`    // corrupted disk entries detected and recomputed
	Failed      uint64 `json:"failed"`          // jobs that returned an error
	Panics      uint64 `json:"panics"`          // attempts recovered from a panic
	Retries     uint64 `json:"retries"`         // attempts repeated after a retryable failure
	Timeouts    uint64 `json:"timeouts"`        // attempts killed by the cell-deadline watchdog
	Injected    uint64 `json:"injected_faults"` // faults injected by Options.Injector
	Journaled   uint64 `json:"journal_appends"` // always 0: the engine keeps no journal; the field keeps manifest bytes
	Resumed     uint64 `json:"journal_resumed"` // always 0: a resumed cell is a disk hit, counted in DiskHits
	RemoteHits  uint64 `json:"remote_hits"`     // jobs resolved by the shared remote cache tier
	RemotePuts  uint64 `json:"remote_puts"`     // results pushed to the remote tier
	RemoteErrs  uint64 `json:"remote_errors"`   // remote-tier round trips that failed (degraded to miss)
	Workers     int    `json:"workers"`         // pool size
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	rh, rp, re := e.remote.Counts()
	return Stats{
		RemoteHits:  rh,
		RemotePuts:  rp,
		RemoteErrs:  re,
		Submitted:   e.mSubmitted.Value(),
		Computed:    e.mComputed.Value(),
		MemoryHits:  e.mMemHits.Value(),
		DiskHits:    e.mDiskHits.Value(),
		DiskWrites:  e.mDiskWrites.Value(),
		DiskCorrupt: e.mCorrupt.Value(),
		Failed:      e.mFailed.Value(),
		Panics:      e.mPanics.Value(),
		Retries:     e.mRetries.Value(),
		Timeouts:    e.mTimeouts.Value(),
		Injected:    e.mInjected.Value(),
		Workers:     e.opts.Workers,
	}
}

// HitRate is the fraction of submitted jobs that needed no simulation
// (served from the in-memory or on-disk cache).  A repeated sweep
// reports 1.0.
func (s Stats) HitRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return 1 - float64(s.Computed)/float64(s.Submitted)
}
