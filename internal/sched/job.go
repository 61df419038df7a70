// Package sched turns the harness into a parallel, cache-aware
// execution engine for design-space exploration.  The unit of work is
// a Job — one (kernel, variant, core config, seed) simulation cell —
// identified by a canonical content hash.  An Engine executes jobs on
// a bounded worker pool and memoizes results in a content-addressed
// in-memory cache (optionally backed by an on-disk store), so repeated
// cells — the shared baseline column across Figures 4-6, or re-runs
// with overlapping configurations — are computed exactly once.
//
// Jobs are pure: core.Simulate touches no state outside its own run,
// which is what makes results bit-identical regardless of worker
// count (enforced by the harness sweep determinism test).
package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// Job is one self-describing simulation cell: which application kernel
// to run, how to compile it, the core to run it on, and the input.
type Job struct {
	App     string          // application name (Blast, Clustalw, Fasta, Hmmer)
	Variant kernels.Variant // predication variant the kernel is compiled under
	CPU     cpu.Config      // microarchitecture configuration
	Seed    int64           // input seed
	Scale   int             // workload scale factor (values < 1 mean 1)

	// Trace selects the trace policy for this cell (zero value: auto).
	// It is execution strategy, not identity: results are bit-identical
	// under every policy, so it is deliberately excluded from Key and
	// Hash — cached results are shared across policies and manifests do
	// not change when tracing is toggled.
	Trace core.TracePolicy `json:"-"`
}

// keySchema versions the canonical key encoding; bump it whenever the
// meaning of an existing cpu.Config field changes so stale on-disk
// cache entries stop matching instead of being silently reused.
// Schema 2 canonicalizes the predictor spec inside the key, so every
// spelling of a predictor addresses one cache entry.
const keySchema = 2

// Key is the canonical, JSON-serializable identity of a Job.  Two jobs
// with equal keys compute the same result.
type Key struct {
	Schema  int        `json:"schema"`
	App     string     `json:"app"`
	Variant string     `json:"variant"`
	Seed    int64      `json:"seed"`
	Scale   int        `json:"scale"`
	CPU     cpu.Config `json:"cpu"`
}

// Key returns the job's canonical identity.  Scale is normalized the
// way kernel NewRun hooks normalize it, so scale 0 and scale 1 address
// the same cache entry; the predictor spec is canonicalized so
// equivalent spellings ("gshare", "gshare:bits=12,hist=11") coalesce.
// An unparseable spec is kept verbatim — it still keys deterministically
// and fails with its real error at execution time.
func (j Job) Key() Key {
	scale := j.Scale
	if scale < 1 {
		scale = 1
	}
	cfg := j.CPU
	cfg.Predictor = branch.CanonicalOrRaw(cfg.Predictor)
	return Key{
		Schema:  keySchema,
		App:     j.App,
		Variant: j.Variant.String(),
		Seed:    j.Seed,
		Scale:   scale,
		CPU:     cfg,
	}
}

// Hash returns the job's content hash: the hex SHA-256 of the
// canonical JSON encoding of its Key.  It addresses both the in-memory
// and the on-disk cache.
func (j Job) Hash() string {
	b, err := json.Marshal(j.Key())
	if err != nil {
		// Key is a fixed struct of marshalable fields; this cannot
		// happen short of memory corruption.
		panic(fmt.Sprintf("sched: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// JobResult is the outcome of executing one job: the report, whether
// an existing trace (or cached result) served it without a fresh
// functional capture, and the per-stage time breakdown.
type JobResult struct {
	Report   cpu.Report
	TraceHit bool
	Cost     telemetry.StageCost
}

// run executes the job through core.Simulate under the job's trace
// policy.  The context carries the caller's tracer so the simulation
// stages span under the worker's execute span.  It is the default
// compute function of an Engine (tests substitute a stub).
func (j Job) run(ctx context.Context, traces *trace.Store) (JobResult, error) {
	if _, err := kernels.ByApp(j.App); err != nil {
		// A job naming an unknown application can never succeed; mark
		// it permanent so the retry loop does not burn its budget on it.
		return JobResult{}, permanentError{err}
	}
	resp, err := core.Simulate(core.Request{
		App:     j.App,
		Variant: j.Variant,
		Seeds:   []int64{j.Seed},
		Scale:   j.Scale,
		CPU:     j.CPU,
		Context: ctx,
		Trace:   j.Trace,
		Traces:  traces,
	})
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{Report: resp.Aggregate, TraceHit: resp.TraceHits > 0, Cost: resp.Cost}, nil
}
