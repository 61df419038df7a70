package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bioperf5/internal/cluster"
	"bioperf5/internal/compiler"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
)

// procs is P: the worker-pool size of every engine under test and the
// number of closed-loop clients that generate load.
func procs() int { return min(runtime.NumCPU(), 2) }

// sample is one completed operation of a workload.
type sample struct {
	ms    float64 // host time the caller waited
	insns uint64  // simulated instructions in the cells it returned
}

// env is a workload set up and warm.
type env struct {
	// op is one operation, for workloads that repeat it on one
	// goroutine; run repeats the operation until the deadline (always
	// at least once) and is derived from op unless prepare sets it.
	op  func(rep int) []sample
	run func(deadline time.Time) []sample
	// close releases what prepare started.
	close func()
	// phases, when set, names sub-operation timings (in ms) the
	// workload collected beside its samples.
	phases map[string][]float64
}

// workload is one named set of inputs.  prepare builds what the timed
// phase needs; a non-nil recorder makes the run a traced one.
type workload struct {
	workloadDef
	prepare func(seed int64, led *ledger, rec *Recorder) (*env, error)
}

// setup compiles the programs, prepares the workload and runs its
// operation once untimed (rep -1), so compiled programs, lazily built
// tables and connection pools exist before the clock starts.  Its
// duration is setup_s.
func (w workload) setup(seed int64, led *ledger, rec *Recorder) (*env, error) {
	for _, c := range baselineCells() {
		if err := compileFresh(c); err != nil {
			return nil, err
		}
	}
	e, err := w.prepare(seed, led, rec)
	if err != nil {
		return nil, err
	}
	if e.close == nil {
		e.close = func() {}
	}
	if op := e.op; op != nil {
		op(-1)
		e.run = func(deadline time.Time) []sample {
			var out []sample
			for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
				out = append(out, op(rep)...)
			}
			return out
		}
	}
	return e, nil
}

var workloads = []workload{
	{workloadDef{"coupled_cells",
		"4 apps x {original, combination} on the POWER5 baseline through core.Simulate with tracing off: only machine, cache and cpu.Model work; the control for every trace/replay change."},
		prepareCoupledCells},
	{workloadDef{"sweep_cold",
		"The 48-point paper grid through harness.RunSweep on a fresh in-memory engine each time: 8 captures and 48 replays, what `bioperf5 sweep` users wait for; cpu.Model does nothing."},
		prepareSweepCold},
	{workloadDef{"sweep_disk",
		"One cache directory used as writer and reader: a sweep that writes traces and results, a gshare sweep that reads traces from disk, then 6 sweeps that only read results from disk."},
		prepareSweepDisk},
	{workloadDef{"serve_hot",
		"P closed-loop HTTP clients draw from 64 primed cells, 80% single and 20% batch-of-8 requests: pure memo hits through server and sched, no simulation at all."},
		prepareServeHot},
	{workloadDef{"cluster_sweep",
		"The sweep_cold grid through cluster.Run over two fresh in-process one-worker servers: sharding, stealing and per-worker duplicate captures on top of the same simulation work."},
		prepareClusterSweep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timed runs f and returns how long it took in milliseconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// compileFresh compiles the cell's program without the process-wide
// memo, so every set-up and every ladder pass pays the compiler as a
// fresh process would, then resolves the memoized copy the simulator
// uses.
func compileFresh(c cell) error {
	k, err := kernels.ByApp(c.App)
	if err != nil {
		return err
	}
	shape, tgt, opts := c.Variant.Plan()
	f, err := k.Build(shape)
	if err != nil {
		return err
	}
	if _, _, err := compiler.Compile(f, tgt, opts); err != nil {
		return err
	}
	_, err = kernels.CompileCached(k, c.Variant)
	return err
}

// ---- coupled_cells ----

func prepareCoupledCells(seed int64, led *ledger, rec *Recorder) (*env, error) {
	cells := baselineCells()
	rng := rand.New(rand.NewSource(seed))
	// One operation is a round: each of the eight cells once, in an
	// order the seed picks.  The cells differ fivefold in length, so a
	// per-cell median would sit on the edge between two kinds of cell
	// and jump from one to the other with the noise.
	return &env{op: func(rep int) []sample {
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		root := rec.Start("coupled_cells.round", 0, rep)
		defer rec.End(root)
		var total sample
		for _, c := range cells {
			var report cpu.Report
			var err error
			total.ms += rec.timed("core.Simulate", root, rep, func() { report, err = coupled(c, seed) })
			if err != nil {
				led.fail("%s: %v", c.ID(), err)
				continue
			}
			led.see(c, "coupled", report)
			total.insns += report.Counters.Instructions
		}
		return []sample{total}
	}}, nil
}

// ---- sweep_cold ----

// work is how much simulation a sweep is expected to cause: jobs the
// engine computes (the rest are cache hits) and functional captures
// (the rest of the computed jobs replay a stored trace).
type work struct{ computed, captures uint64 }

// coldWork is a sweep with nothing cached: four grid points coincide
// with the baselines, and each app x variant is captured once.
var coldWork = work{computed: gridPoints, captures: 8}

// runSweep runs the paper grid on a fresh engine over dir ("" keeps it
// in memory), checks the manifest and that the sweep simulated exactly
// what its place in the workload says it should.  The caller waits for
// engine construction and the sweep; closing the engine is not timed.
func runSweep(seed int64, predictor, dir, path string, want work, led *ledger, rec *Recorder, parent, rep int) (sample, *harness.SweepManifest) {
	var m *harness.SweepManifest
	var err error
	var eng *sched.Engine
	ms := rec.timed("sched.New", parent, rep, func() {
		eng = sched.New(sched.Options{Workers: procs(), CacheDir: dir})
	})
	ms += rec.timed("harness.RunSweep", parent, rep, func() {
		m, err = harness.RunSweep(sweepSpec(seed, predictor, harness.Config{Engine: eng}))
	})
	rec.timed("sched.Close", parent, rep, eng.Close)
	if err != nil {
		led.fail("%s: %v", path, err)
		return sample{ms: ms}, nil
	}
	if got := (work{m.Scheduler.Computed, eng.TraceStore().Stats().Captures}); got != want {
		led.fail("%s: computed %d jobs with %d captures, want %d with %d",
			path, got.computed, got.captures, want.computed, want.captures)
	}
	return sample{ms, led.manifest(path, m)}, m
}

func prepareSweepCold(seed int64, led *ledger, rec *Recorder) (*env, error) {
	return &env{op: func(rep int) []sample {
		root := rec.Start("sweep_cold.rep", 0, rep)
		defer rec.End(root)
		s, _ := runSweep(seed, predTournament, "", "swept", coldWork, led, rec, root, rep)
		return []sample{s}
	}}, nil
}

// ---- sweep_disk ----

// resultReuseSweeps is how many result-only sweeps one sweep_disk round
// makes.  Every sweep of a round is one operation, so with six of them
// to one writing sweep and one trace-reusing sweep the median operation
// is a result read, the 90th percentile is a writing sweep, and
// throughput is set by the two sweeps that simulate: each use of the
// disk tier has an end-to-end metric that moves when it gets slower.
const resultReuseSweeps = 6

// scratchDir makes a fresh directory under bench/out, inside the
// checkout the bench was started from.
func scratchDir() (string, error) {
	base := filepath.Join("bench", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "cache-")
}

// diskPhases names the three phases of a sweep_disk round, in order.
var diskPhases = []string{"write_sweep", "trace_reuse", "result_reuse"}

// diskRound is one sweep_disk round in a fresh cache directory: a sweep
// on a new engine that writes traces and results; a new engine sweeping
// under gshare, so results miss and traces are read back from disk and
// replayed; then new engines re-running the first sweep, which only
// read results from disk.  It returns every sweep, the sweeps' times by
// phase, and the first sweep's manifest.
func diskRound(seed int64, led *ledger, rec *Recorder, rep int) ([]sample, map[string][]float64, *harness.SweepManifest) {
	dir, err := scratchDir()
	if err != nil {
		led.fail("sweep_disk: %v", err)
		return nil, nil, nil
	}
	defer os.RemoveAll(dir)
	root := rec.Start("sweep_disk.round", 0, rep)
	defer rec.End(root)

	var sweeps []sample
	phases := make(map[string][]float64, len(diskPhases))
	var written *harness.SweepManifest
	phase := func(name, predictor, path string, want work, n int) {
		ph := rec.Start("sweep_disk."+name, root, rep)
		defer rec.End(ph)
		for i := 0; i < n; i++ {
			s, m := runSweep(seed, predictor, dir, path, want, led, rec, ph, rep)
			sweeps = append(sweeps, s)
			phases[name] = append(phases[name], s.ms)
			if written == nil {
				written = m
			}
		}
	}
	phase(diskPhases[0], predTournament, "swept to disk", coldWork, 1)
	phase(diskPhases[1], predGshare, "replayed from disk traces", work{computed: gridPoints}, 1)
	phase(diskPhases[2], predTournament, "read from disk results", work{}, resultReuseSweeps)
	return sweeps, phases, written
}

func prepareSweepDisk(seed int64, led *ledger, rec *Recorder) (*env, error) {
	e := &env{phases: map[string][]float64{}}
	e.op = func(rep int) []sample {
		sweeps, phases, _ := diskRound(seed, led, rec, rep)
		if rep >= 0 {
			for name, ms := range phases {
				e.phases[name] = append(e.phases[name], ms...)
			}
		}
		return sweeps
	}
	return e, nil
}

// ---- cluster_sweep ----

// clusterSweep runs the grid through a coordinator over two fresh
// one-worker servers.  Starting and stopping the workers is not timed.
func clusterSweep(seed int64, led *ledger, rec *Recorder, rep int) (sample, *harness.SweepManifest, []*worker) {
	root := rec.Start("cluster_sweep.rep", 0, rep)
	defer rec.End(root)
	// The span opens before the workers boot so their handler spans can
	// name it as the parent; the time reported is cluster.Run alone.
	sp := rec.Start("cluster.Run", root, rep)
	fleet := []*worker{startWorker(1, 0, rec, sp, rep), startWorker(1, 0, rec, sp, rep)}
	transport := &http.Transport{}
	var m *harness.SweepManifest
	var err error
	ms := timed(func() {
		m, err = cluster.Run(cluster.Options{
			Workers: []string{fleet[0].ts.URL, fleet[1].ts.URL},
			Spec:    sweepSpec(seed, predTournament, harness.Config{}),
			HTTP:    &http.Client{Transport: transport},
		})
	})
	rec.End(sp)
	transport.CloseIdleConnections()
	for _, w := range fleet {
		w.close()
	}
	if err != nil {
		led.fail("clustered: %v", err)
		return sample{ms: ms}, nil, fleet
	}
	return sample{ms, led.manifest("clustered", m)}, m, fleet
}

func prepareClusterSweep(seed int64, led *ledger, rec *Recorder) (*env, error) {
	return &env{op: func(rep int) []sample {
		s, _, _ := clusterSweep(seed, led, rec, rep)
		return []sample{s}
	}}, nil
}

// ---- measurement ----

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupReps = 3

// measurement is what one untraced run of one workload observed.
type measurement struct {
	setupS  []float64
	samples []sample
	wallS   float64 // length of the timed phase
	mallocs uint64  // heap allocations during the timed phase, bench side included
	phases  map[string][]float64
}

// endToEndMetrics derives the declared end-to-end metrics.
func endToEndMetrics(m measurement) map[string]float64 {
	var insns uint64
	ms := make([]float64, len(m.samples))
	for i, s := range m.samples {
		ms[i] = s.ms
		insns += s.insns
	}
	asc := sorted(ms)
	out := map[string]float64{
		"setup_s":   median(m.setupS),
		"op_ms_p50": percentile(asc, 50),
		"op_ms_p90": percentile(asc, 90),
	}
	if m.wallS > 0 {
		out["sim_mips"] = float64(insns) / m.wallS / 1e6
	}
	if len(m.samples) > 0 {
		out["allocs_per_op"] = float64(m.mallocs) / float64(len(m.samples))
	}
	return out
}

// measure runs the untraced benchmark of one workload.
func measure(w workload, seed int64, seconds float64, led *ledger) (measurement, error) {
	var m measurement
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = w.setup(seed, led, nil); err != nil {
			return m, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	defer e.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m.samples = e.run(start.Add(time.Duration(seconds * float64(time.Second))))
	m.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - before.Mallocs
	m.phases = e.phases
	if len(m.samples) == 0 {
		return m, fmt.Errorf("%s: no operation completed: %s", w.Name, led.firstErr)
	}
	return m, nil
}
