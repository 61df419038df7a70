// Span-based "where does the time go" tracing.  A Tracer collects
// hierarchical spans — one per lifecycle stage of a simulation cell or
// HTTP request — with parent/child links carried through a
// context.Context, monotonic start/duration timestamps, and typed
// attributes.  Finished spans export two ways: a JSONL log (one
// SpanData per line) and a Chrome trace-event file that Perfetto and
// chrome://tracing load directly.  When a Registry is attached, every
// span End also feeds a per-stage latency histogram
// ("span.<name>.us"), so stage timings appear on /metrics without any
// extra plumbing.
//
// The whole subsystem is built to cost nothing when disabled: with no
// Tracer in the context, StartSpan returns the context unchanged and a
// nil *Span, and every method on a nil *Span is an allocation-free
// no-op (enforced by TestSpanDisabledAllocFree).  Instrumentation can
// therefore sit permanently on hot paths — the serve cached path, the
// scheduler worker loop — and only pay when a sweep or server was
// started with spans enabled.
package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Stage names: the fixed taxonomy of where a cell's wall time can go.
// StageCost fields, span names and the `bioperf5 spans` report all use
// this vocabulary, so one grep follows a stage across every surface.
const (
	StageRequest   = "serve.request"    // HTTP handler, decode to encode
	StageAdmission = "serve.admission"  // admission-semaphore acquire
	StageQueue     = "sched.queue"      // bounded-queue wait, submit to dequeue
	StageExecute   = "sched.execute"    // one job on a worker, dequeue to done
	StageAttempt   = "sched.attempt"    // one simulation attempt (retries repeat it)
	StageCompile   = "compile"          // kernel IR build + compile (memoized)
	StageCapture   = "trace.capture"    // functional execution recording a trace
	StageReplay    = "trace.replay"     // decoupled timing replay of a trace
	StageSim       = "sim.coupled"      // coupled functional+timing run (trace off)
	StageCacheRead = "cache.read"       // disk result-cache probe + trace-store read
	StageCacheWr   = "cache.write"      // disk result-cache write-back
	StageManifest  = "manifest.write"   // sweep manifest atomic write
	StageSweep     = "sweep"            // whole-sweep root span
	StageDispatch  = "cluster.dispatch" // one batch of cells sent to a remote worker
	StageBreaker   = "cluster.breaker"  // a circuit-breaker transition (open/reclose/quarantine)
)

// SpanBoundsUS is the bucket layout of the per-stage latency
// histograms, in microseconds: sub-millisecond cache probes up to
// multi-second cold captures.
func SpanBoundsUS() []uint64 {
	return []uint64{50, 250, 1_000, 5_000, 25_000, 100_000,
		500_000, 2_000_000, 10_000_000, 60_000_000}
}

// Attr is one typed span attribute.  Exactly one of Str/Int carries
// the value, selected by Kind.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
}

// AttrKind discriminates Attr values.
type AttrKind uint8

// Attribute kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrBool
)

// MarshalJSON renders the attribute as {"key": <value>} with the value
// typed, the shape the spans JSONL and the Chrome trace "args" use.
func (a Attr) MarshalJSON() ([]byte, error) {
	var v string
	switch a.Kind {
	case AttrInt:
		v = strconv.FormatInt(a.Int, 10)
	case AttrBool:
		v = strconv.FormatBool(a.Int != 0)
	default:
		b, err := json.Marshal(a.Str)
		if err != nil {
			return nil, err
		}
		v = string(b)
	}
	k, err := json.Marshal(a.Key)
	if err != nil {
		return nil, err
	}
	return []byte("{" + string(k) + ":" + v + "}"), nil
}

// UnmarshalJSON parses the {"key": <value>} shape back into a typed
// attribute (numbers become AttrInt, booleans AttrBool, the rest
// AttrString) — the round trip behind the spans report.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for k, v := range m {
		a.Key = k
		switch t := v.(type) {
		case bool:
			a.Kind = AttrBool
			if t {
				a.Int = 1
			}
		case float64:
			a.Kind = AttrInt
			a.Int = int64(t)
		case string:
			a.Kind = AttrString
			a.Str = t
		default:
			a.Kind = AttrString
			a.Str = fmt.Sprint(t)
		}
	}
	return nil
}

// Value returns the attribute's value as a display string.
func (a Attr) Value() string {
	switch a.Kind {
	case AttrInt:
		return strconv.FormatInt(a.Int, 10)
	case AttrBool:
		return strconv.FormatBool(a.Int != 0)
	}
	return a.Str
}

// SpanData is one finished span, the JSONL line shape.  Times are
// nanoseconds relative to the tracer's epoch, read from the monotonic
// clock so durations are immune to wall-clock steps.
type SpanData struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Span is one in-flight stage measurement.  A nil *Span is the
// disabled form: every method is an allocation-free no-op.  A Span is
// owned by the goroutine that started it; End is safe to call once.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// DefaultSpanCapacity bounds a tracer at 2^19 retained spans (~50MB of
// JSONL); past it the newest spans are dropped and counted, so tracing
// an arbitrarily long serve run is memory-safe.
const DefaultSpanCapacity = 1 << 19

// Tracer collects finished spans.  All methods are safe for
// concurrent use.  A nil *Tracer is valid and means disabled.
type Tracer struct {
	reg   *Registry // optional; feeds span.<name>.us histograms
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []SpanData
	cap     int
	dropped uint64
}

// NewTracer returns a tracer retaining at most capacity finished spans
// (capacity <= 0 gets DefaultSpanCapacity).  When reg is non-nil every
// span End also observes the span.<name>.us histogram in reg, putting
// per-stage latency distributions on /metrics.
func NewTracer(capacity int, reg *Registry) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{reg: reg, epoch: time.Now(), cap: capacity}
}

// ctxKey keys the span state in a context.
type ctxKey struct{}

// spanCtx is the context payload: which tracer, and which span is the
// current parent.
type spanCtx struct {
	tr     *Tracer
	parent uint64
}

// WithTracer returns a context carrying the tracer; spans started
// under it attach to tr.  A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, spanCtx{tr: tr})
}

// TracerFrom extracts the tracer from ctx, or nil when spans are
// disabled.  The ctx.Value lookup is the one cost instrumented code
// pays on the disabled path.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	if sc, ok := ctx.Value(ctxKey{}).(spanCtx); ok {
		return sc.tr
	}
	return nil
}

// StartSpan begins a span named name under the current span in ctx.
// With no tracer in ctx it returns (ctx, nil) without allocating; the
// nil span's methods all no-op, so call sites need no branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	sc, ok := ctx.Value(ctxKey{}).(spanCtx)
	if !ok || sc.tr == nil {
		return ctx, nil
	}
	sp := sc.tr.start(name, sc.parent)
	return context.WithValue(ctx, ctxKey{}, spanCtx{tr: sc.tr, parent: sp.id}), sp
}

// start allocates one span.
func (t *Tracer) start(name string, parent uint64) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
}

// Record adds an already-measured interval as a span under the current
// span in ctx — the retroactive form used for queue wait, where the
// duration is known only after the fact.  No-op on a nil tracer.
func (t *Tracer) Record(ctx context.Context, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	var parent uint64
	if ctx != nil {
		if sc, ok := ctx.Value(ctxKey{}).(spanCtx); ok {
			parent = sc.parent
		}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.finish(SpanData{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
}

// Attr adds a string attribute.  No-op on a nil span.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: value})
}

// AttrInt adds an integer attribute.  No-op on a nil span.
func (s *Span) AttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: value})
}

// AttrBool adds a boolean attribute.  No-op on a nil span.
func (s *Span) AttrBool(key string, value bool) {
	if s == nil {
		return
	}
	a := Attr{Key: key, Kind: AttrBool}
	if value {
		a.Int = 1
	}
	s.attrs = append(s.attrs, a)
}

// End finishes the span, recording its duration.  No-op on a nil span;
// a second End on the same span is ignored.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.tr.finish(SpanData{
		ID: s.id, Parent: s.parent, Name: s.name,
		StartNS: s.start.Sub(s.tr.epoch).Nanoseconds(),
		DurNS:   time.Since(s.start).Nanoseconds(),
		Attrs:   s.attrs,
	})
}

// finish retains one finished span under the capacity bound and feeds
// the per-stage histogram.
func (t *Tracer) finish(d SpanData) {
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, d)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if t.reg != nil {
		t.reg.Histogram("span."+d.Name+".us", SpanBoundsUS()).
			Observe(uint64(d.DurNS / 1000))
	}
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many finished spans the capacity bound discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained spans in finish order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// WriteJSONL writes the retained spans to w, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range t.Spans() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event ("X" = complete event).  Times
// are microseconds; pid/tid place the event on a track.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained spans in the Chrome trace-event
// JSON format — see WriteChromeTraceData.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceData(w, t.Spans())
}

// WriteChromeTraceData writes spans in the Chrome trace-event JSON
// format (the {"traceEvents": [...]} object form), loadable in
// Perfetto and chrome://tracing.  Each root span gets its own track
// (tid = root span ID), so concurrent cells render as parallel rows
// with their child stages nested by time.
func WriteChromeTraceData(w io.Writer, spans []SpanData) error {
	// Resolve each span's root so children land on their root's track.
	parent := make(map[uint64]uint64, len(spans))
	for _, d := range spans {
		parent[d.ID] = d.Parent
	}
	rootOf := func(id uint64) uint64 {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, d := range spans {
		ev := chromeEvent{
			Name: d.Name, Ph: "X",
			TS:  float64(d.StartNS) / 1000,
			Dur: float64(d.DurNS) / 1000,
			PID: 1, TID: rootOf(d.ID),
		}
		if len(d.Attrs) > 0 {
			ev.Args = make(map[string]string, len(d.Attrs))
			for _, a := range d.Attrs {
				ev.Args[a.Key] = a.Value()
			}
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSpansJSONL parses a spans JSONL stream back into SpanData — the
// loader behind `bioperf5 spans` and the round-trip tests.
func ReadSpansJSONL(r io.Reader) ([]SpanData, error) {
	var out []SpanData
	dec := json.NewDecoder(r)
	for {
		var d SpanData
		if err := dec.Decode(&d); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: bad span line %d: %w", len(out)+1, err)
		}
		if d.Name == "" {
			return out, fmt.Errorf("telemetry: span line %d: missing name", len(out)+1)
		}
		out = append(out, d)
	}
}
