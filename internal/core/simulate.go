package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// TracePolicy selects how a simulation uses the capture-once/
// replay-many trace subsystem.
type TracePolicy string

// Trace policies.  The zero value means TraceAuto.
const (
	// TraceAuto captures the cell's dynamic trace on first use and
	// replays it for every later request that differs only in timing
	// configuration.  This is the default: results are bit-identical to
	// the coupled path and sweeps pay for each functional execution
	// once.
	TraceAuto TracePolicy = "auto"
	// TraceOff runs the coupled functional-plus-timing path, bypassing
	// the trace subsystem entirely.
	TraceOff TracePolicy = "off"
)

// ParseTracePolicy resolves a policy spelling; the empty string means
// TraceAuto so absent config fields keep the default behaviour.
func ParseTracePolicy(s string) (TracePolicy, error) {
	switch TracePolicy(s) {
	case "":
		return TraceAuto, nil
	case TraceAuto, TraceOff:
		return TracePolicy(s), nil
	}
	return "", fmt.Errorf("core: unknown trace policy %q (want auto or off)", s)
}

// Request describes one simulation through the unified Simulate entry
// point: which cell to run (application, variant, seeds, scale), the
// timing configuration, and how to use the trace subsystem.
type Request struct {
	App     string
	Variant kernels.Variant
	Seeds   []int64
	Scale   int
	CPU     cpu.Config

	// Context, when non-nil, carries the caller's telemetry tracer:
	// each stage of the simulation (compile, capture, replay, coupled
	// run) records a span under the current span in it.  Simulation
	// results never depend on it.
	Context context.Context

	// Trace selects the trace policy; the zero value is TraceAuto.
	Trace TracePolicy
	// Traces is the trace store to capture into / replay from; nil uses
	// the process-wide default store.  Ignored when Trace is TraceOff.
	Traces *trace.Store
	// Observer's hooks (event trace, registry, branch profiler, interval
	// snapshots) watch the timing core for every seed, whichever policy
	// feeds it, without perturbing it.  The live cache and memory publish
	// into the registry only under TraceOff: a replay has neither.
	Observer kernels.Observer
}

// Response is the result of one Simulate call.
type Response struct {
	// Seeds holds each seed's counters and stall stack, in request
	// order.  The values are bit-identical regardless of trace policy.
	Seeds []SeedReport `json:"seeds"`
	// Aggregate is the field-wise sum over seeds.
	Aggregate cpu.Report `json:"aggregate"`
	// TraceHits counts seeds served from an existing trace (memory,
	// disk, or a capture coalesced with a concurrent request).
	TraceHits int `json:"trace_hits"`
	// Captures counts seeds that ran a fresh functional capture.
	Captures int `json:"captures"`
	// Cost is the summed per-stage time breakdown across seeds:
	// where this call's wall time went (compile vs capture vs replay
	// vs coupled run vs trace-store wait).  Always measured — the
	// clock reads are trivial next to any simulation.
	Cost telemetry.StageCost `json:"cost,omitempty"`
}

// defaultTraceStore is the process-wide in-memory trace store Simulate
// uses when the request does not supply one.
var defaultTraceStore = sync.OnceValue(func() *trace.Store {
	return trace.NewStore(trace.StoreOptions{})
})

// Simulate is the single entry point for running a cell: it resolves
// the kernel, applies the trace policy per seed, and aggregates.  With
// tracing enabled the counters and stall stacks are bit-identical to
// the coupled path (TraceOff) — the replay-equivalence tests in
// kernels enforce it — so callers choose a policy on cost alone.
func Simulate(req Request) (*Response, error) {
	if len(req.Seeds) == 0 {
		return nil, fmt.Errorf("core: no seeds")
	}
	k, err := kernels.ByApp(req.App)
	if err != nil {
		return nil, err
	}
	scale := req.Scale
	if scale < 1 {
		scale = 1
	}
	store := req.Traces
	if store == nil && req.Trace != TraceOff {
		store = defaultTraceStore()
	}

	ctx := req.Context
	if ctx == nil {
		ctx = context.Background()
	}

	resp := &Response{}
	for _, seed := range req.Seeds {
		rep, hit, cost, err := simulateSeed(ctx, k, req.Variant, seed, scale, req.CPU, req.Trace, store, req.Observer)
		if err != nil {
			return nil, err
		}
		if req.Trace != TraceOff {
			if hit {
				resp.TraceHits++
			} else {
				resp.Captures++
			}
		}
		resp.Seeds = append(resp.Seeds, SeedReport{Seed: seed, Counters: rep.Counters, Stalls: rep.Stalls})
		resp.Aggregate = resp.Aggregate.Add(rep)
		resp.Cost.Add(cost)
	}
	return resp, nil
}

// simulateSeed runs one (kernel, variant, seed, scale) invocation under
// the policy, reporting whether an existing trace served it and where
// the time went.  The compile stage is isolated by resolving the
// memoized compilation up front, so the capture/replay timings below it
// measure only their own work.
func simulateSeed(ctx context.Context, k *kernels.Kernel, v kernels.Variant, seed int64, scale int,
	cfg cpu.Config, policy TracePolicy, store *trace.Store, obs kernels.Observer) (_ cpu.Report, _ bool, cost telemetry.StageCost, _ error) {
	seedStart := time.Now()
	defer func() { cost.TotalNS = time.Since(seedStart).Nanoseconds() }()

	// Resolve the memoized compilation first so the stage timings
	// below measure only their own work.  The returned context is not
	// adopted: later stages are siblings of the compile span, not
	// children.
	compileStart := time.Now()
	_, csp := telemetry.StartSpan(ctx, telemetry.StageCompile)
	csp.Attr("app", k.App)
	csp.Attr("variant", v.String())
	_, err := kernels.CompileCached(k, v)
	csp.End()
	cost.CompileNS = time.Since(compileStart).Nanoseconds()
	if err != nil {
		return cpu.Report{}, false, cost, err
	}

	if policy == TraceOff {
		run, err := k.NewRun(seed, scale)
		if err != nil {
			return cpu.Report{}, false, cost, err
		}
		simStart := time.Now()
		_, sp := telemetry.StartSpan(ctx, telemetry.StageSim)
		sp.Attr("app", k.App)
		sp.AttrInt("seed", seed)
		rep, err := kernels.SimulateObserved(k, v, run, cfg, stepLimit, obs)
		sp.End()
		cost.SimNS = time.Since(simStart).Nanoseconds()
		return rep, false, cost, err
	}

	key, err := kernels.TraceKey(k, v, seed, scale)
	if err != nil {
		return cpu.Report{}, false, cost, err
	}
	// The store call covers both the singleflight wait (a concurrent
	// caller is capturing the same trace) and, on a cold key, the
	// capture itself; the closure isolates the capture portion so the
	// remainder attributes to the store.  The capture times this cell
	// in the same walk, so the call that ran it does not replay.
	getStart := time.Now()
	var captureNS int64
	var rep cpu.Report
	t, hit, err := store.GetOrCapture(ctx, key, func() (*trace.Trace, error) {
		capStart := time.Now()
		_, sp := telemetry.StartSpan(ctx, telemetry.StageCapture)
		sp.Attr("app", k.App)
		sp.AttrInt("seed", seed)
		tr, r, cerr := kernels.CaptureTimed(k, v, seed, scale, stepLimit, &cfg, obs)
		sp.End()
		captureNS = time.Since(capStart).Nanoseconds()
		rep = r
		return tr, cerr
	})
	cost.CaptureNS = captureNS
	cost.CacheNS = time.Since(getStart).Nanoseconds() - captureNS
	if err != nil || !hit {
		return rep, false, cost, err
	}
	replayStart := time.Now()
	_, sp := telemetry.StartSpan(ctx, telemetry.StageReplay)
	sp.Attr("app", k.App)
	sp.AttrInt("seed", seed)
	rep, err = kernels.ReplayObserved(k, v, t, cfg, obs)
	sp.End()
	cost.ReplayNS = time.Since(replayStart).Nanoseconds()
	return rep, true, cost, err
}
