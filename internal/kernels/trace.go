package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"bioperf5/internal/cache"
	"bioperf5/internal/compiler"
	"bioperf5/internal/cpu"
	"bioperf5/internal/isa"
	"bioperf5/internal/trace"
)

// Compiled is one memoized compilation: the assembled program, the
// compiler's transformation statistics, the replay metadata derived
// from the program, and the program's content hash (which pins traces
// to the exact code they were captured from).  Compiled values are
// shared across callers and must be treated as read-only.
type Compiled struct {
	Prog  *isa.Program
	Stats *compiler.Stats
	Meta  []cpu.InsMeta
	Hash  string
}

var (
	compileMu    sync.Mutex
	compileCache = map[string]*Compiled{}
)

// CompileCached compiles the kernel for a variant, memoizing the result
// per (kernel, variant).  Compilation is deterministic, so every caller
// of the same cell shares one program, one stats block and one replay
// metadata table; errors are not cached and recompile on retry.
func CompileCached(k *Kernel, v Variant) (*Compiled, error) {
	key := k.Name + "\x00" + v.String()
	compileMu.Lock()
	c, ok := compileCache[key]
	compileMu.Unlock()
	if ok {
		return c, nil
	}

	prog, st, err := k.compile(v)
	if err != nil {
		return nil, err
	}
	h, err := hashProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	c = &Compiled{Prog: prog, Stats: st, Meta: cpu.ProgMeta(prog), Hash: h}

	compileMu.Lock()
	if prev, ok := compileCache[key]; ok {
		c = prev // a concurrent compile won; results are identical anyway
	} else {
		compileCache[key] = c
	}
	compileMu.Unlock()
	return c, nil
}

// hashProgram returns the hex SHA-256 of the program's machine code.
func hashProgram(p *isa.Program) (string, error) {
	words, err := p.EncodeAll()
	if err != nil {
		return "", err
	}
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// TraceKey returns the content address of the trace for one
// (kernel, variant, seed, scale) cell.  It compiles (cached) to obtain
// the program hash.  The key is predictor-free: direction predictors
// run live at replay time, so every predictor shares the cell's trace.
func TraceKey(k *Kernel, v Variant, seed int64, scale int) (trace.Key, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return trace.Key{}, err
	}
	return trace.Key{
		App:      k.App,
		Variant:  v.String(),
		Seed:     seed,
		Scale:    scale,
		ProgHash: c.Hash,
	}, nil
}

// CaptureTrace walks the kernel once on the functional machine — the
// walk and entry conventions of SimulateObserved, with the annotated
// instructions kept in a trace.Builder instead of timed — and returns
// the trace.  The functional result is verified before the trace is
// sealed, so a stored trace is always a trace of a correct execution.
func CaptureTrace(k *Kernel, v Variant, seed int64, scale int, limit uint64) (*trace.Trace, error) {
	t, _, err := CaptureTimed(k, v, seed, scale, limit, nil, Observer{})
	return t, err
}

// CaptureTimed is CaptureTrace that, when cfg is non-nil, also times
// the cell in the same walk: cfg's core, watched by obs, consumes every
// instruction the builder keeps, so a trace's first use costs one
// functional execution instead of a capture and a replay.  The report
// equals ReplayObserved of the returned trace under cfg, and obs's
// registry gets only the core's state, as a replay publishes it.
func CaptureTimed(k *Kernel, v Variant, seed int64, scale int, limit uint64, cfg *cpu.Config, obs Observer) (*trace.Trace, cpu.Report, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return nil, cpu.Report{}, err
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return nil, cpu.Report{}, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	mach, err := load(k, c, run)
	if err != nil {
		return nil, cpu.Report{}, err
	}
	hier := cache.NewPOWER5Hierarchy()
	var core *cpu.Core
	if cfg != nil {
		if core, err = obs.newCore(v, *cfg, hier.LevelLatencies()); err != nil {
			return nil, cpu.Report{}, err
		}
		defer obs.publish(core)
	}
	var b trace.Builder
	if err := cpu.Walk(mach, c.Meta, hier, limit, core, &b); err != nil {
		return nil, cpu.Report{}, fmt.Errorf("kernels: %s/%s: capture: %w", k.Name, v, err)
	}
	if err := check(k, v, mach, run); err != nil {
		return nil, cpu.Report{}, err
	}
	// Replay charges exactly the load latencies capture resolved against.
	t, err := b.Finish(trace.Meta{
		App:      k.App,
		Kernel:   k.Name,
		Variant:  v.String(),
		Seed:     seed,
		Scale:    scale,
		ProgHash: c.Hash,
		Result:   run.Want,
		LoadLat:  hier.LevelLatencies(),
	})
	if err != nil {
		return nil, cpu.Report{}, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	var rep cpu.Report
	if core != nil {
		rep = core.Report()
	}
	return t, rep, nil
}

// ReplayTrace feeds a stored trace through the timing core under cfg
// and returns the report.  The counters and stall stack are
// bit-identical to what SimulateObserved produces for the same cell:
// capture and the live path are one cpu.Walk, so the trace holds the
// events the live core consumes, and the same core consumes them here.
// The replay-equivalence tests hold the encoding and this loop to that.
// A trace whose program hash does not match the current compilation, or
// whose payload does not hold the records it reads, is rejected as
// corrupt.
func ReplayTrace(k *Kernel, v Variant, t *trace.Trace, cfg cpu.Config) (cpu.Report, error) {
	return ReplayObserved(k, v, t, cfg, Observer{})
}

// ReplayObserved is ReplayTrace with the observability SimulateObserved
// offers, through the same core setup: the trace records everything
// the hooks report, so a replayed cell explains itself exactly as a
// live one does.  Only the registry's cache and memory-image
// statistics are absent — replay simulates neither.
func ReplayObserved(k *Kernel, v Variant, t *trace.Trace, cfg cpu.Config, obs Observer) (cpu.Report, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return cpu.Report{}, err
	}
	if t.Meta.ProgHash != c.Hash {
		return cpu.Report{}, fmt.Errorf("%w: trace for program %.12s, compiled %.12s",
			trace.ErrCorrupt, t.Meta.ProgHash, c.Hash)
	}
	core, err := obs.newCore(v, cfg, t.Meta.LoadLat)
	if err != nil {
		return cpu.Report{}, err
	}
	defer obs.publish(core)
	recs, err := t.Records()
	if err != nil {
		return core.Report(), err
	}
	n := recs.Len()
	var ev cpu.Event
	var next trace.Head // the following record's head, read once for both
	if n > 0 {
		next = recs.Head(0)
	}
	mem := 0 // memory ops replayed so far: the index of the next EA
	for i := 0; i < n; i++ {
		h := next
		if i+1 < n {
			next = recs.Head(i + 1)
		}
		pc := h.PC()
		if pc >= len(c.Meta) {
			return core.Report(), fmt.Errorf("%w: PC %d outside program of %d instructions",
				trace.ErrCorrupt, pc, len(c.Meta))
		}
		if !h.Legal() {
			return core.Report(), fmt.Errorf("%w: record %d: illegal flags in head %#x", trace.ErrCorrupt, i, uint32(h))
		}
		// The final record of a halted execution is its own successor.
		ev.Meta, ev.PC, ev.Next = &c.Meta[pc], pc, next.PC()
		ev.Taken, ev.MissLevel, ev.EA = h.Taken(), h.MissLevel(), 0
		if h.HasEA() {
			ea, ok := recs.EA(mem)
			if !ok {
				return core.Report(), fmt.Errorf("%w: payload ends before memory op %d", trace.ErrCorrupt, mem)
			}
			ev.EA = ea
			mem++
		}
		if err := core.Consume(&ev); err != nil {
			return core.Report(), fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
		}
	}
	return core.Report(), nil
}
