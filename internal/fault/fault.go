// Package fault is the deterministic fault-injection layer behind the
// scheduler's chaos testing.  An Injector is consulted by the engine at
// in-process sites — job execution, the disk-cache write, the
// trace-store write — and by the ChaosTransport at wire sites — dial,
// response, stream — and answers with a Decision: inject nothing, or
// one of the failure modes the fault-tolerant sweep must survive (a
// panic, a transient error, an artificial hang, a spurious
// cancellation, a corrupted store entry, a refused or delayed dial, a
// synthesized 5xx, a cut or corrupted or duplicated response stream, a
// per-worker blackout window).
//
// The stock Plan injector is seedable and fully deterministic: the
// decision for a given (seed, site, cell hash, attempt) never changes,
// so a chaotic run is exactly reproducible, and a bounded Times budget
// guarantees that retries eventually see a fault-free attempt.  Plans
// parse from a compact spec string (the BIOPERF5_FAULTS environment
// variable in the CLI); see Parse.
package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"
)

// Site names a point in the engine where faults can be injected.
type Site int

const (
	// SiteExecute is one simulation attempt of a job.
	SiteExecute Site = iota
	// SiteStore is the disk-cache write of a computed result.
	SiteStore
	// SiteTrace is the trace-store disk write of a captured trace.
	SiteTrace
	// SiteDial is a transport-level request about to leave the client
	// (connection refusal, added latency, blackout windows).
	SiteDial
	// SiteResponse is a transport-level response about to reach the
	// client (synthesized 5xx answers).
	SiteResponse
	// SiteStream is a response body being streamed to the client
	// (mid-stream cuts, corrupted or duplicated JSONL lines).
	SiteStream
)

// Kind is a failure mode.
type Kind int

const (
	// None injects nothing.
	None Kind = iota
	// Panic makes the attempt panic mid-simulation.
	Panic
	// Error fails the attempt with a transient (retryable) error.
	Error
	// Hang delays the attempt by Decision.Delay, modelling a stuck
	// simulation; with a cell deadline set, the watchdog fires first.
	Hang
	// Cancel fails the attempt with a spurious cancellation error.
	Cancel
	// Corrupt truncates the freshly written disk-cache or trace-store
	// entry, modelling a torn write or bit rot (SiteStore/SiteTrace).
	Corrupt
	// Refuse fails a dial with a connection-refused error (SiteDial).
	Refuse
	// Latency delays a request by Decision.Delay before it is sent,
	// modelling a slow or congested link (SiteDial).
	Latency
	// HTTP5xx replaces the worker's answer with a synthesized 503,
	// modelling a proxy or worker blowing up after accepting the
	// request (SiteResponse).
	HTTP5xx
	// Cut severs the response body mid-stream with an unexpected EOF,
	// modelling a torn connection (SiteStream).
	Cut
	// CorruptLine mangles the leading bytes of the response body so a
	// JSONL (or JSON) consumer sees garbage, modelling on-the-wire
	// corruption (SiteStream).
	CorruptLine
	// DupItem duplicates the first complete JSONL line of the body,
	// modelling at-least-once delivery (SiteStream).  Consumers must
	// dedup; the coordinator's first-result-wins does.
	DupItem
	// Blackout refuses every request to one worker for a window of
	// requests, modelling a network partition (SiteDial; reported by
	// the transport when the plan's blackout window matches).
	Blackout
)

// kinds is the one table of rate-driven faults: the spec key that sets a
// kind's probability, the site the kind is injected at, and the kind.
// Plan keeps one rate per row; Parse, Validate, Decide and the Has*
// predicates all walk this table, so a new fault is one new row.  Rows
// of one site are tried in table order against one uniform draw, which
// makes the order part of what a seed reproduces.
var kinds = [...]struct {
	key  string
	site Site
	kind Kind
}{
	{"panic", SiteExecute, Panic},
	{"error", SiteExecute, Error},
	{"hang", SiteExecute, Hang},
	{"cancel", SiteExecute, Cancel},
	{"corrupt", SiteStore, Corrupt},
	{"tracecorrupt", SiteTrace, Corrupt},
	{"refuse", SiteDial, Refuse},
	{"latency", SiteDial, Latency},
	{"http5xx", SiteResponse, HTTP5xx},
	{"cut", SiteStream, Cut},
	{"corruptline", SiteStream, CorruptLine},
	{"dupitem", SiteStream, DupItem},
}

// siteNames names each Site for error messages.
var siteNames = [...]string{"execute", "store", "trace", "dial", "response", "stream"}

// String names the kind for error messages: the spec key of its first
// table row.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Blackout:
		return "blackout"
	}
	for _, row := range kinds {
		if row.kind == k {
			return row.key
		}
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Decision is an injector's answer for one site visit.
type Decision struct {
	Kind  Kind
	Delay time.Duration // hang duration; meaningful only for Hang
}

// Injector decides which fault, if any, to inject at a site.  hash is
// the content hash of the cell being processed and attempt its 0-based
// retry index.  Implementations must be safe for concurrent use and
// deterministic in their arguments, or chaos runs stop reproducing.
type Injector interface {
	Decide(site Site, hash string, attempt int) Decision
}

// DefaultHangDelay is the hang duration of a spec that does not set
// one.  It is deliberately long: a hang is meant to out-sleep the
// engine's cell deadline so the watchdog path is exercised.
const DefaultHangDelay = 30 * time.Second

// DefaultLatencyDelay is the added request latency of a spec that does
// not set one.  It is deliberately short: latency injection is
// meant to reorder completions and exercise stealing, not to trip
// request deadlines.
const DefaultLatencyDelay = 25 * time.Millisecond

// Plan is the stock deterministic injector: per-kind probabilities
// evaluated against a hash of (Seed, site, cell hash, attempt).  The
// zero value injects nothing.  Plans that do come from Parse, which
// fills in the defaults (one injection per site and cell, the default
// delays).
type Plan struct {
	Seed int64 // stream selector; same seed, same faults

	// rates holds one probability per kinds row, each in [0,1] with a
	// sum <= 1 over the rows of one site.
	rates [len(kinds)]float64

	// Blackout describes a per-worker partition window: every request
	// whose host contains BlackoutTarget and whose per-host request
	// ordinal falls in [BlackoutFrom, BlackoutFrom+BlackoutFor) is
	// refused.  Empty target disables the window.
	BlackoutTarget string
	BlackoutFrom   int
	BlackoutFor    int

	// HangDelay is how long a Hang decision sleeps, LatencyDelay how
	// long a Latency decision stalls a request before it is sent.
	HangDelay    time.Duration
	LatencyDelay time.Duration

	// Times caps injections per (site, cell): attempts >= Times are
	// left alone.  Keeping Times at or below the engine's retry budget
	// guarantees every cell eventually gets a clean attempt, so a
	// chaotic sweep still converges.
	Times int
}

// Validate checks the plan's rates and budgets.
func (p *Plan) Validate() error {
	var sums [len(siteNames)]float64
	for i, row := range kinds {
		r := p.rates[i]
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return fmt.Errorf("fault: %s rate %g out of range [0,1]", row.key, r)
		}
		sums[row.site] += r
	}
	for site, sum := range sums {
		if sum > 1 {
			return fmt.Errorf("fault: %s-site rates sum to %g, must be <= 1", siteNames[site], sum)
		}
	}
	if p.BlackoutTarget != "" && (p.BlackoutFrom < 0 || p.BlackoutFor <= 0) {
		return fmt.Errorf("fault: blackout window %d+%d invalid, want FROM >= 0 and FOR > 0",
			p.BlackoutFrom, p.BlackoutFor)
	}
	return nil
}

// armed reports whether any kind injected at a site in [lo, hi] has a
// positive rate.
func (p *Plan) armed(lo, hi Site) bool {
	if p == nil {
		return false
	}
	for i, row := range kinds {
		if row.site >= lo && row.site <= hi && p.rates[i] > 0 {
			return true
		}
	}
	return false
}

// HasNetworkFaults reports whether the plan injects anything at the
// transport sites (dial, response, stream) or defines a blackout
// window; when false a ChaosTransport built from it is a no-op.
func (p *Plan) HasNetworkFaults() bool {
	return p.armed(SiteDial, SiteStream) || (p != nil && p.BlackoutTarget != "" && p.BlackoutFor > 0)
}

// HasLocalFaults reports whether the plan injects anything at the
// in-process sites (execute, store, trace).
func (p *Plan) HasLocalFaults() bool { return p.armed(SiteExecute, SiteTrace) }

// delay is the Decision.Delay a kind carries: the plan's hang and
// latency durations, zero for every other kind.
func (p *Plan) delay(k Kind) time.Duration {
	switch k {
	case Hang:
		return p.HangDelay
	case Latency:
		return p.LatencyDelay
	}
	return 0
}

// draw maps (Seed, site, hash, attempt) to a uniform value in [0,1),
// deterministically.
func (p *Plan) draw(site Site, hash string, attempt int) float64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("bioperf5.fault|%d|%d|%s|%d",
		p.Seed, site, hash, attempt)))
	// 53 uniform bits, exactly representable as a float64 in [0,1).
	return float64(binary.BigEndian.Uint64(sum[:8])>>11) / float64(1<<53)
}

// Decide implements Injector: the site's rows partition [0,1) in table
// order and the draw picks one, or none past their sum.
func (p *Plan) Decide(site Site, hash string, attempt int) Decision {
	if p == nil || attempt >= p.Times {
		return Decision{}
	}
	u := p.draw(site, hash, attempt)
	cum := 0.0
	for i, row := range kinds {
		if row.site != site {
			continue
		}
		r := p.rates[i]
		cum += r
		if r > 0 && u < cum {
			return Decision{Kind: row.kind, Delay: p.delay(row.kind)}
		}
	}
	return Decision{}
}
