package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

const replayLimit = 500_000_000

// liveReport feeds the timing core live: functional machine and cache
// hierarchy stepping with it, exactly what `-trace off` executes.
func liveReport(t *testing.T, k *Kernel, v Variant, seed int64, scale int, cfg cpu.Config, obs Observer) cpu.Report {
	t.Helper()
	run, err := k.NewRun(seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateObserved(k, v, run, cfg, replayLimit, obs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// timingVariations spans the paper's tier-1 design space: the POWER5
// baseline, the 8-entry BTAC (Figure 4), 3 and 4 fixed-point units
// (Figure 5), the combined machine (Figure 6), and — since predictors
// run live at replay time — representatives of the predictor zoo.  One
// captured trace must replay bit-identically under every one of them.
func timingVariations() map[string]cpu.Config {
	base := cpu.POWER5Baseline()
	btac := base
	btac.UseBTAC = true
	fxu3 := base
	fxu3.NumFXU = 3
	fxu4 := base
	fxu4.NumFXU = 4
	combo := base
	combo.UseBTAC = true
	combo.NumFXU = 4
	tage := base
	tage.Predictor = "tage:tables=4,hist=2..64"
	perc := combo
	perc.Predictor = "perceptron:weights=256,hist=24"
	return map[string]cpu.Config{
		"baseline":        base,
		"btac8":           btac,
		"fxu3":            fxu3,
		"fxu4":            fxu4,
		"btac8+fxu4":      combo,
		"tage":            tage,
		"perceptron+btac": perc,
	}
}

// goldenTraceDigest is the SHA-256 of the EncodeFile bytes of the 24
// seed-1, scale-1 golden traces, concatenated in All() × variant order.  It pins what capture writes:
// a change to the instruction walk, the trace encoding or a kernel
// that moves one byte of any trace file fails here, and a deliberate
// one re-records this value (with a FormatVersion bump when old files
// no longer mean what they say).
const goldenTraceDigest = "ff6cbe40b436070547c2c2a52300cfb47955d6402c7b37d277ff988c69ebbb5a"

// golden holds the 24 seed-1, scale-1 traces, one per app × variant,
// captured once for every test that replays them.  Traces are immutable
// values, so the tests share them read-only.
var golden struct {
	once   sync.Once
	traces map[string]*trace.Trace // by app + "/" + variant
	err    error
}

// goldenTrace returns the shared seed-1, scale-1 trace of one cell,
// capturing all 24 on first use.
func goldenTrace(t *testing.T, k *Kernel, v Variant) *trace.Trace {
	t.Helper()
	golden.once.Do(func() {
		golden.traces = make(map[string]*trace.Trace)
		for _, k := range All() {
			for v := Branchy; v < NumVariants; v++ {
				tr, err := CaptureTrace(k, v, 1, 1, replayLimit)
				if err != nil {
					golden.err = fmt.Errorf("%s/%s: capture: %w", k.App, v, err)
					return
				}
				golden.traces[k.App+"/"+v.String()] = tr
			}
		}
	})
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	return golden.traces[k.App+"/"+v.String()]
}

// TestReplayEquivalenceGolden is the trace subsystem's core invariant:
// for every tier-1 cell, the core fed from a captured trace produces
// counters and a CPI stall stack byte-identical to the core fed live.
// The pipeline is the same code on both sides, and so is the walk that
// annotates the instructions, so what this holds together is the
// trace: its PC/next/taken encoding, its miss levels, its effective
// addresses and its recorded load latencies, decoded and replayed.
// One trace per (app, variant) is captured once and replayed under
// every timing variation — the capture-once/replay-many contract
// itself — and the traces' bytes are pinned by goldenTraceDigest.
func TestReplayEquivalenceGolden(t *testing.T) {
	files := sha256.New()
	for _, k := range All() {
		for v := Branchy; v < NumVariants; v++ {
			tr := goldenTrace(t, k, v)
			b, err := tr.EncodeFile()
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", k.App, v, err)
			}
			files.Write(b)
			for name, cfg := range timingVariations() {
				got, err := ReplayTrace(k, v, tr, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: replay: %v", k.App, v, name, err)
				}
				if want := liveReport(t, k, v, 1, 1, cfg, Observer{}); got != want {
					t.Errorf("%s/%s/%s: replayed core diverges from live-fed core\n replayed: %+v\n live:     %+v",
						k.App, v, name, got, want)
				}
			}
		}
	}
	if got := hex.EncodeToString(files.Sum(nil)); got != goldenTraceDigest {
		t.Errorf("trace files digest to %s, want %s", got, goldenTraceDigest)
	}
}

// TestTimedCaptureEqualsReplay: a capture that times its cell in the
// same walk writes CaptureTrace's trace file to the byte, reports what
// a replay of that trace under the same configuration reports, and
// publishes exactly what the replay publishes — the core's state, and
// no cache or memory statistics.
func TestTimedCaptureEqualsReplay(t *testing.T) {
	cfg := cpu.POWER5Baseline()
	for _, k := range All() {
		for _, v := range []Variant{Branchy, Combination} {
			cell := k.App + "/" + v.String()
			regs := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
			tr, got, err := CaptureTimed(k, v, 1, 1, replayLimit, &cfg, Observer{Registry: regs[0]})
			if err != nil {
				t.Fatalf("%s: timed capture: %v", cell, err)
			}
			b, err := tr.EncodeFile()
			if err != nil {
				t.Fatal(err)
			}
			want, err := goldenTrace(t, k, v).EncodeFile()
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(b) != sha256.Sum256(want) {
				t.Errorf("%s: timed capture's trace file differs from CaptureTrace's", cell)
			}
			replayed, err := ReplayObserved(k, v, tr, cfg, Observer{Registry: regs[1]})
			if err != nil {
				t.Fatal(err)
			}
			if got != replayed || got.Counters.Instructions == 0 {
				t.Errorf("%s: timed capture reports %+v, its replay %+v", cell, got, replayed)
			}
			if a, b := regs[0].Snapshot(0), regs[1].Snapshot(0); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: timed capture published %v, its replay %v", cell, a.Counters, b.Counters)
			}
		}
	}
}

// TestReplayEquivalenceSeedsAndScale spot-checks that the invariant
// holds off the default (seed, scale) coordinate too.
func TestReplayEquivalenceSeedsAndScale(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.POWER5Baseline()
	cfg.UseBTAC = true
	for _, coord := range []struct {
		seed  int64
		scale int
	}{{2, 1}, {7, 1}, {1, 2}} {
		tr, err := CaptureTrace(k, Branchy, coord.seed, coord.scale, replayLimit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReplayTrace(k, Branchy, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != liveReport(t, k, Branchy, coord.seed, coord.scale, cfg, Observer{}) {
			t.Errorf("seed %d scale %d: replayed core diverges from live-fed core", coord.seed, coord.scale)
		}
	}
}

// tally is a BranchProfiler that counts calls without allocating.
type tally struct{ cond, miss, btac, wrong uint64 }

func (c *tally) OnCondBranch(pc int, taken, mispredicted bool) {
	c.cond++
	if mispredicted {
		c.miss++
	}
}

func (c *tally) OnBTAC(pc int, predicted, wrong bool) {
	c.btac++
	if wrong {
		c.wrong++
	}
}

// TestReplayObservedMatchesLive: everything the core's hooks report —
// pipeline trace events with their effective addresses, the streaming
// telemetry distributions, the branch profiler's view, the interval
// snapshots behind Figure 2 — is the same whether the core is fed live
// or from a trace, for every app x variant.
func TestReplayObservedMatchesLive(t *testing.T) {
	cfg := cpu.POWER5Baseline()
	cfg.UseBTAC = true
	const every = 10_000
	for _, k := range All() {
		for v := Branchy; v < NumVariants; v++ {
			cell := k.App + "/" + v.String()
			tr := goldenTrace(t, k, v)
			var prof [2]tally
			var regs [2]*telemetry.Registry
			var bufs [2]*telemetry.TraceBuffer
			var snaps [2][]cpu.Counters
			var obs [2]Observer
			for i := range obs {
				i := i
				regs[i], bufs[i] = telemetry.NewRegistry(), telemetry.NewTraceBuffer(1<<14)
				obs[i] = Observer{Trace: bufs[i], Registry: regs[i], Branches: &prof[i],
					Every: every, Interval: func(c cpu.Counters) { snaps[i] = append(snaps[i], c) }}
			}
			live := liveReport(t, k, v, 1, 1, cfg, obs[0])
			replayed, err := ReplayObserved(k, v, tr, cfg, obs[1])
			if err != nil {
				t.Fatal(err)
			}
			if live != replayed {
				t.Fatalf("%s: observed reports differ", cell)
			}
			if prof[0] != prof[1] || prof[0].cond != live.Counters.CondBranches ||
				prof[0].miss != live.Counters.DirMispredicts || prof[0].btac != live.Counters.BTACLookups {
				t.Errorf("%s: profiler saw %+v live, %+v replayed, counters %+v", cell, prof[0], prof[1], live.Counters)
			}
			if bufs[0].Dropped() == 0 || !reflect.DeepEqual(bufs[0].Events(), bufs[1].Events()) {
				t.Errorf("%s: pipeline trace differs between feeds (dropped %d/%d)",
					cell, bufs[0].Dropped(), bufs[1].Dropped())
			}
			// One snapshot per full window, none for the partial tail,
			// each taken exactly on its boundary.
			if want := int(live.Counters.Instructions / every); len(snaps[0]) != want || !reflect.DeepEqual(snaps[0], snaps[1]) {
				t.Errorf("%s: %d live and %d replayed interval snapshots, want %d identical ones",
					cell, len(snaps[0]), len(snaps[1]), want)
			}
			for i, c := range snaps[0] {
				if c.Instructions != uint64(i+1)*every {
					t.Errorf("%s: snapshot %d taken at %d instructions", cell, i, c.Instructions)
				}
			}
			snapLive, snapReplayed := regs[0].Snapshot(0), regs[1].Snapshot(0)
			if !reflect.DeepEqual(snapLive.Histograms, snapReplayed.Histograms) ||
				!reflect.DeepEqual(snapLive.Labeled, snapReplayed.Labeled) {
				t.Errorf("%s: streaming telemetry differs between feeds", cell)
			}
			for name, v := range snapReplayed.Counters {
				if snapLive.Counters[name] != v {
					t.Errorf("%s: replay published %s = %d, live %d", cell, name, v, snapLive.Counters[name])
				}
			}
		}
	}
	// A half-specified interval observer is refused by both feeds.
	k := All()[0]
	tr := goldenTrace(t, k, Branchy)
	for _, bad := range []Observer{{Interval: func(cpu.Counters) {}}, {Every: every}} {
		run, err := k.NewRun(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SimulateObserved(k, Branchy, run, cfg, replayLimit, bad); err == nil {
			t.Errorf("live feed accepted interval observer with length %d, sink set: %v", bad.Every, bad.Interval != nil)
		}
		if _, err := ReplayObserved(k, Branchy, tr, cfg, bad); err == nil {
			t.Errorf("replay accepted interval observer with length %d, sink set: %v", bad.Every, bad.Interval != nil)
		}
	}
}

// TestTimingAllocationsDoNotScale is the allocation gate on the one
// core: neither feed allocates per instruction.  Scale 2 executes well
// over twice the instructions of scale 1, yet the timing side of a
// coupled run (its allocations beyond those of executing the same
// marshalled input on the bare machine) and a whole replay, with or
// without a profiler attached, allocate the same handful of objects
// (to within a few the runtime adds on its own under load).
func TestTimingAllocationsDoNotScale(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.POWER5Baseline()
	cfg.UseBTAC = true
	const runs = 2
	type allocs struct{ coupled, replay, profiled float64 }
	measure := func(scale int) (a allocs, instructions uint64) {
		// AllocsPerRun calls its function runs+1 times, and a Run's
		// memory image is consumed by executing it.
		inputs := func() []*Run {
			rs := make([]*Run, runs+1)
			for i := range rs {
				if rs[i], err = k.NewRun(1, scale); err != nil {
					t.Fatal(err)
				}
			}
			return rs
		}
		rs, i := inputs(), 0
		simulate := testing.AllocsPerRun(runs, func() {
			if _, err := SimulateObserved(k, Branchy, rs[i], cfg, replayLimit, Observer{}); err != nil {
				t.Fatal(err)
			}
			i++
		})
		rs, i = inputs(), 0
		execute := testing.AllocsPerRun(runs, func() {
			if _, err := Execute(k, Branchy, rs[i], replayLimit); err != nil {
				t.Fatal(err)
			}
			i++
		})
		a.coupled = simulate - execute

		tr, err := CaptureTrace(k, Branchy, 1, scale, replayLimit)
		if err != nil {
			t.Fatal(err)
		}
		a.replay = testing.AllocsPerRun(runs, func() {
			if _, err := ReplayTrace(k, Branchy, tr, cfg); err != nil {
				t.Fatal(err)
			}
		})
		var prof tally
		a.profiled = testing.AllocsPerRun(runs, func() {
			if _, err := ReplayObserved(k, Branchy, tr, cfg, Observer{Branches: &prof}); err != nil {
				t.Fatal(err)
			}
		})
		return a, tr.Meta.Records
	}
	small, n1 := measure(1)
	big, n2 := measure(2)
	if n2 < 2*n1 {
		t.Fatalf("scale 2 runs %d instructions, scale 1 %d: not enough growth to show anything", n2, n1)
	}
	// "Does not scale", not "is equal": the runtime allocates a stray
	// object or two of its own when packages test in parallel, so exact
	// equality of AllocsPerRun averages flakes.  A per-instruction
	// allocation would show as millions against the extra instructions.
	const slack = 8
	for _, p := range []struct {
		path       string
		small, big float64
	}{
		{"coupled", small.coupled, big.coupled},
		{"replay", small.replay, big.replay},
		{"profiled", small.profiled, big.profiled},
	} {
		if math.Abs(p.big-p.small) > slack {
			t.Errorf("%s allocations moved with %d -> %d instructions: %v -> %v",
				p.path, n1, n2, p.small, p.big)
		}
	}
	if small.profiled-small.replay > 2 {
		t.Errorf("attaching a profiler costs %v allocations per replay", small.profiled-small.replay)
	}
	t.Logf("%d -> %d instructions: %+v", n1, n2, small)
}

// TestReplayFileRoundTrip replays from a trace that went through the
// durable file encoding, so the on-disk tier is covered by the same
// equivalence bar as the in-memory one.
func TestReplayFileRoundTrip(t *testing.T) {
	k, err := ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(k, Branchy, 1, 1, replayLimit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.POWER5Baseline()
	got, err := ReplayTrace(k, Branchy, decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := liveReport(t, k, Branchy, 1, 1, cfg, Observer{}); got != want {
		t.Error("file-round-tripped trace diverges from the live-fed core")
	}
}

// TestConcurrentReplaysShareOneDecode: a trace that arrived as bytes
// is decoded once, by DecodeFile, and every replay sharing it — here
// each under a different machine configuration, at once — reads its
// payload and reports what a replay of the captured trace does.
func TestConcurrentReplaysShareOneDecode(t *testing.T) {
	k, err := ByApp("Hmmer")
	if err != nil {
		t.Fatal(err)
	}
	captured, err := CaptureTrace(k, Combination, 1, 1, replayLimit)
	if err != nil {
		t.Fatal(err)
	}
	file, err := captured.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.DecodeFile(file)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]cpu.Config, 6)
	for i := range cfgs {
		cfgs[i] = cpu.POWER5Baseline()
		cfgs[i].NumFXU = 2 + i%3
		cfgs[i].UseBTAC = i >= 3
	}
	got := make([]cpu.Report, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := ReplayTrace(k, Combination, loaded, cfgs[i])
			if err != nil {
				t.Error(err)
			}
			got[i] = rep
		}(i)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		want, err := ReplayTrace(k, Combination, captured, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("config %d: replay of the loaded trace differs from the captured one", i)
		}
	}
}

// TestReplayRejectsForeignProgram: a trace pinned to a different
// compilation must be rejected as corrupt, not replayed against the
// wrong static metadata.
func TestReplayRejectsForeignProgram(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(k, Branchy, 1, 1, replayLimit)
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.ProgHash = "0000000000000000"
	if _, err := ReplayTrace(k, Branchy, tr, cpu.POWER5Baseline()); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("foreign program hash accepted: %v", err)
	}
}

// TestReplayRejectsOutOfRangePC: a record whose PC exceeds the program
// must fail as corrupt instead of indexing out of bounds.
func TestReplayRejectsOutOfRangePC(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileCached(k, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	var b trace.Builder
	b.Add(trace.Record{PC: len(c.Meta) + 5})
	bad, err := b.Finish(trace.Meta{ProgHash: c.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(k, Branchy, bad, cpu.POWER5Baseline()); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("out-of-range PC accepted: %v", err)
	}
}

// TestTraceKeySharedAcrossTimingConfigs pins the cache-keying contract:
// the trace key must not move with anything the timing sweep varies,
// and must move with everything the dynamic stream depends on.
func TestTraceKeySharedAcrossTimingConfigs(t *testing.T) {
	k, err := ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	key, err := TraceKey(k, Branchy, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same cell, any timing config: the key is computed from
	// (kernel, variant, seed, scale) only, so the predictor x FXU x BTAC
	// factorial shares one capture per seed by construction.
	again, err := TraceKey(k, Branchy, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key.Hash() != again.Hash() {
		t.Error("same cell produced different trace keys")
	}
	other, err := TraceKey(k, Combination, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key.Hash() == other.Hash() {
		t.Error("different variants share a trace key")
	}
}

// TestCompileCachedMemoizes: the per-(kernel, variant) compilation is
// computed once and shared; ByApp returns fresh Kernel values, so the
// memo must key on names, not pointers.
func TestCompileCachedMemoizes(t *testing.T) {
	k1, err := ByApp("Hmmer")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ByApp("Hmmer")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := CompileCached(k1, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(k2, Branchy)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same (kernel, variant) compiled twice")
	}
	if len(c1.Meta) != c1.Prog.Len() {
		t.Errorf("replay metadata covers %d of %d instructions", len(c1.Meta), c1.Prog.Len())
	}
}
