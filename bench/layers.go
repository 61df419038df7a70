package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// ladderPredictors are the direction predictors replay is timed under;
// tournament is the POWER5 baseline, so its row is the baseline replay.
var ladderPredictors = []string{predTournament, predGshare, "tage", "perceptron"}

// rung is one layer call summed over the eight baseline cells.
type rung struct {
	ns      float64
	mallocs uint64
}

// ladderRep is one pass of the explicit ladder compile -> NewRun ->
// Execute -> CaptureTrace -> Iter -> EncodeFile/DecodeFile ->
// ReplayTrace -> Simulate over the eight baseline cells, each rung a
// span of its own.  Sums weight every cell by its instruction count.
type ladderRep struct {
	insns, cycles     uint64
	compile, newRun   rung
	exec, capture     rung
	iter, coupled     rung
	encode, decode    rung
	replay            map[string]rung // by predictor
	simulateOverhead  float64         // ns core.Simulate reports outside the replay, warm store
	payload, fileSize uint64          // trace bytes
}

// mallocsNow reads the process-wide allocation count.  The ladder runs
// on one goroutine with nothing else going on, so a delta around a call
// is that call's allocations.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder runs one pass and returns it with the captured traces.
func ladder(seed int64, led *ledger, rec *Recorder, rep int) (ladderRep, []*trace.Trace) {
	out := ladderRep{replay: map[string]rung{}}
	var traces []*trace.Trace
	root := rec.Start("ladder.rep", 0, rep)
	defer rec.End(root)
	for _, c := range baselineCells() {
		sp := rec.Start("ladder.cell "+c.ID(), root, rep)
		t, err := ladderCell(c, seed, &out, led, rec, sp, rep)
		rec.End(sp)
		if err != nil {
			led.fail("%s: %v", c.ID(), err)
			continue
		}
		traces = append(traces, t)
	}
	return out, traces
}

// ladderCell climbs the ladder for one cell, adding each rung to out.
func ladderCell(c cell, seed int64, out *ladderRep, led *ledger, rec *Recorder, parent, rep int) (*trace.Trace, error) {
	k, err := kernels.ByApp(c.App)
	if err != nil {
		return nil, err
	}
	cfg := c.setup().CPU
	step := func(r *rung, name string, f func() error) error {
		sp := rec.Start(name, parent, rep)
		defer rec.End(sp)
		before := mallocsNow()
		start := time.Now()
		err := f()
		r.ns += float64(time.Since(start).Nanoseconds())
		r.mallocs += mallocsNow() - before
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	if err := step(&out.compile, "compiler.Compile", func() error { return compileFresh(c) }); err != nil {
		return nil, err
	}
	var run *kernels.Run
	if err := step(&out.newRun, "kernels.NewRun", func() (e error) {
		run, e = k.NewRun(seed, scale)
		return
	}); err != nil {
		return nil, err
	}
	var insns uint64
	if err := step(&out.exec, "kernels.Execute", func() (e error) {
		insns, e = kernels.Execute(k, c.Variant, run, stepLimit)
		return
	}); err != nil {
		return nil, err
	}
	var t *trace.Trace
	if err := step(&out.capture, "kernels.CaptureTrace", func() (e error) {
		t, e = kernels.CaptureTrace(k, c.Variant, seed, scale, stepLimit)
		return
	}); err != nil {
		return nil, err
	}
	if err := step(&out.iter, "trace.Iter", func() error {
		it := t.Iter()
		for it.Next() {
		}
		return it.Err()
	}); err != nil {
		return nil, err
	}
	var file []byte
	if err := step(&out.encode, "trace.EncodeFile", func() (e error) {
		file, e = t.EncodeFile()
		return
	}); err != nil {
		return nil, err
	}
	if err := step(&out.decode, "trace.DecodeFile", func() error {
		_, e := trace.DecodeFile(file)
		return e
	}); err != nil {
		return nil, err
	}
	replayed := make(map[string]cpu.Report, len(ladderPredictors))
	for _, pred := range ladderPredictors {
		r := out.replay[pred]
		err := step(&r, "kernels.ReplayTrace "+pred, func() (e error) {
			pcfg := cfg
			pcfg.Predictor = pred
			replayed[pred], e = kernels.ReplayTrace(k, c.Variant, t, pcfg)
			return
		})
		out.replay[pred] = r
		if err != nil {
			return nil, err
		}
	}
	var model cpu.Report
	if err := step(&out.coupled, "kernels.Simulate", func() error {
		fresh, e := k.NewRun(seed, scale)
		if e != nil {
			return e
		}
		model, e = kernels.SimulateObserved(k, c.Variant, fresh, cfg, stepLimit, kernels.Observer{})
		return e
	}); err != nil {
		return nil, err
	}
	store := trace.NewStore(trace.StoreOptions{})
	store.Put(trace.KeyFromMeta(t.Meta), t)
	var auto *core.Response
	if err := step(new(rung), "core.Simulate", func() (e error) {
		auto, e = core.Simulate(core.Request{App: c.App, Variant: c.Variant, Seeds: []int64{seed},
			Scale: scale, CPU: cfg, Traces: store})
		return
	}); err != nil {
		return nil, err
	}

	if auto.TraceHits != 1 {
		return nil, fmt.Errorf("core.Simulate captured instead of replaying the stored trace")
	}
	if insns != model.Counters.Instructions || insns != t.Meta.Records {
		return nil, fmt.Errorf("executed %d instructions, traced %d, modelled %d", insns, t.Meta.Records, model.Counters.Instructions)
	}
	led.see(c, "replayed", replayed[predTournament])
	gshare := c
	gshare.Predictor = predGshare
	led.see(gshare, "replayed", replayed[predGshare])
	led.see(c, "coupled", model)
	led.see(c, "core.Simulate", auto.Aggregate)
	out.simulateOverhead += float64(auto.Cost.CompileNS + auto.Cost.CaptureNS + auto.Cost.CacheNS)
	out.insns += insns
	out.cycles += model.Counters.Cycles
	out.payload += uint64(len(t.Payload))
	out.fileSize += uint64(len(file))
	return t, nil
}

// layerMeasurement is what one traced run observed.  Times are medians
// over whatever repetitions the probe made.
type layerMeasurement struct {
	ladder []ladderRep

	// trace store with a disk tier
	storePutMS, storeGetDiskMS, storeGetMemUS float64
	// scheduler
	memoHitUS, memoHitAllocs, coldCellMS, diskHitUS, hitRate float64
	// sweeps: stage costs of a cold in-memory sweep and of the writing
	// sweep of a disk round, and the disk round's phase medians
	stage, diskStage telemetry.StageCost
	diskPhaseMS      map[string]float64
	// harness
	planMS, manifestMS, warmSweepUSPerPoint float64
	// server
	cellHitUS                                             []float64
	batchHitUSPerCell, replayMissMS, coldMS, clientSelfUS float64
	rejected                                              float64
	// cluster
	clusterSweepS, coordSelfS, workerBusyFrac float64
	cluster                                   harness.ClusterStats
	clusterCaptures                           uint64
	// host and recorder
	peakRSSMB, gcCPUFrac, gcPauseMS, traceOverheadFrac float64
}

// ratio is a/b, or 0 when b is 0 (nothing was measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the declared per-layer metrics.
func layerMetrics(m layerMeasurement) map[string]float64 {
	med := func(f func(r ladderRep) float64) float64 {
		vals := make([]float64, len(m.ladder))
		for i, r := range m.ladder {
			vals[i] = f(r)
		}
		return median(vals)
	}
	nsPerInsn := func(pick func(r ladderRep) rung) float64 {
		return med(func(r ladderRep) float64 { return ratio(pick(r).ns, float64(r.insns)) })
	}
	mips := func(pick func(r ladderRep) rung) float64 {
		return med(func(r ladderRep) float64 { return ratio(float64(r.insns)*1e3, pick(r).ns) })
	}
	allocs := func(pick func(r ladderRep) rung) float64 {
		return med(func(r ladderRep) float64 { return ratio(float64(pick(r).mallocs), float64(r.insns)) })
	}
	exec := func(r ladderRep) rung { return r.exec }
	capture := func(r ladderRep) rung { return r.capture }
	iter := func(r ladderRep) rung { return r.iter }
	coupled := func(r ladderRep) rung { return r.coupled }
	replay := func(pred string) func(r ladderRep) rung {
		return func(r ladderRep) rung { return r.replay[pred] }
	}
	frac := func(c telemetry.StageCost, ns int64) float64 {
		var sum int64
		for _, s := range c.Stages() {
			sum += s.NS
		}
		return ratio(float64(ns), float64(sum))
	}
	hits := sorted(m.cellHitUS)
	var insns, cycles uint64
	if len(m.ladder) > 0 {
		insns, cycles = m.ladder[0].insns, m.ladder[0].cycles
	}

	out := map[string]float64{
		"compiler.compile_ms": med(func(r ladderRep) float64 { return r.compile.ns / 1e6 }),

		"machine.exec_mips":            mips(exec),
		"machine.exec_ns_per_insn":     nsPerInsn(exec),
		"machine.exec_allocs_per_insn": allocs(exec),

		"kernels.capture_mips":            mips(capture),
		"kernels.capture_ns_per_insn":     nsPerInsn(capture),
		"kernels.capture_allocs_per_insn": allocs(capture),
		// CaptureTrace marshals its own input, Execute is handed one:
		// annotation and encoding are what is left of a capture after
		// taking out the input and the bare execution.
		"cache.annotate_self_ns_per_insn": med(func(r ladderRep) float64 {
			return ratio(r.capture.ns-r.newRun.ns-r.exec.ns, float64(r.insns))
		}),

		"trace.bytes_per_insn":       med(func(r ladderRep) float64 { return ratio(float64(r.payload), float64(r.insns)) }),
		"trace.iter_mips":            mips(iter),
		"trace.encode_file_mb_s":     med(func(r ladderRep) float64 { return ratio(float64(r.fileSize)*1e3, r.encode.ns) }),
		"trace.decode_file_mb_s":     med(func(r ladderRep) float64 { return ratio(float64(r.fileSize)*1e3, r.decode.ns) }),
		"trace.store_put_ms":         m.storePutMS,
		"trace.store_get_disk_ms":    m.storeGetDiskMS,
		"trace.store_get_mem_us":     m.storeGetMemUS,
		"cpu.replay_mips":            mips(replay(predTournament)),
		"cpu.replay_ns_per_insn":     nsPerInsn(replay(predTournament)),
		"cpu.replay_allocs_per_insn": allocs(replay(predTournament)),
		"cpu.replay_self_ns_per_insn": med(func(r ladderRep) float64 {
			return ratio(r.replay[predTournament].ns-r.iter.ns, float64(r.insns))
		}),
		"cpu.coupled_mips":            mips(coupled),
		"cpu.coupled_ns_per_insn":     nsPerInsn(coupled),
		"cpu.coupled_allocs_per_insn": allocs(coupled),
		"cpu.model_self_ns_per_insn": med(func(r ladderRep) float64 {
			return ratio(r.coupled.ns-r.newRun.ns-r.exec.ns, float64(r.insns))
		}),
		// Per cell, eight cells to a pass: the compile-memo and
		// trace-store stages of the StageCost the call returns.  Timing
		// the call and subtracting a separately timed ReplayTrace would
		// leave only the noise of two 20 ms timings.
		"core.simulate_overhead_us": med(func(r ladderRep) float64 {
			return r.simulateOverhead / 1e3 / float64(len(baselineCells()))
		}),

		"core.stage_capture_frac":    frac(m.stage, m.stage.CaptureNS),
		"core.stage_replay_frac":     frac(m.stage, m.stage.ReplayNS),
		"core.stage_queue_frac":      frac(m.stage, m.stage.QueueNS),
		"core.stage_cache_frac":      frac(m.stage, m.stage.CacheNS),
		"core.disk_stage_cache_frac": frac(m.diskStage, m.diskStage.CacheNS),

		"sched.memo_hit_us":          m.memoHitUS,
		"sched.memo_hit_allocs":      m.memoHitAllocs,
		"sched.cold_cell_ms":         m.coldCellMS,
		"sched.disk_hit_us":          m.diskHitUS,
		"sched.hit_rate":             m.hitRate,
		"sched.disk_write_sweep_s":   m.diskPhaseMS[diskPhases[0]] / 1e3,
		"sched.disk_trace_reuse_s":   m.diskPhaseMS[diskPhases[1]] / 1e3,
		"sched.disk_result_reuse_ms": m.diskPhaseMS[diskPhases[2]],

		"harness.plan_ms":                 m.planMS,
		"harness.manifest_ms":             m.manifestMS,
		"harness.warm_sweep_us_per_point": m.warmSweepUSPerPoint,

		"server.cell_hit_us_p50":       percentile(hits, 50),
		"server.cell_hit_us_p99":       percentile(hits, 99),
		"server.batch_hit_us_per_cell": m.batchHitUSPerCell,
		"server.cell_replay_miss_ms":   m.replayMissMS,
		"server.cell_cold_ms":          m.coldMS,
		"server.client_self_us":        m.clientSelfUS,
		"server.rejected":              m.rejected,

		"cluster.sweep_s":             m.clusterSweepS,
		"cluster.coord_self_s":        m.coordSelfS,
		"cluster.worker_busy_frac":    m.workerBusyFrac,
		"cluster.batches":             float64(m.cluster.Batches),
		"cluster.stolen":              float64(m.cluster.Stolen),
		"cluster.redispatched":        float64(m.cluster.Redispatched),
		"cluster.duplicates":          float64(m.cluster.Duplicates),
		"cluster.capture_useful_frac": ratio(float64(len(baselineCells())), float64(m.clusterCaptures)),

		"host.peak_rss_mb": m.peakRSSMB,
		"host.gc_cpu_frac": m.gcCPUFrac,
		"host.gc_pause_ms": m.gcPauseMS,

		"sim.instructions":          float64(insns),
		"sim.cycles":                float64(cycles),
		"bench.trace_overhead_frac": m.traceOverheadFrac,
	}
	for _, pred := range ladderPredictors {
		out["branch.replay_mips."+pred] = mips(replay(pred))
	}
	return out
}

// opsPerSecond sets w up, runs it for the given time and returns its
// operation rate.
func opsPerSecond(w workload, seed int64, seconds float64, led *ledger, rec *Recorder) (float64, error) {
	e, err := w.setup(seed, led, rec)
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer e.close()
	start := time.Now()
	n := len(e.run(start.Add(time.Duration(seconds * float64(time.Second)))))
	return float64(n) / time.Since(start).Seconds(), nil
}

// measureLayers is the traced run of one workload.  It repeats the
// workload untraced and traced, an eighth of the run each, for the
// tracing overhead; spends a third of the run on the ladder; and probes
// every other layer once.  Everything is recorded as spans and written
// to bench/out/trace_<workload>.jsonl.
func measureLayers(w workload, seed int64, seconds float64, led *ledger) (layerMeasurement, error) {
	var m layerMeasurement
	rec := newRecorder(w.Name)

	untraced, err := opsPerSecond(w, seed, seconds/8, led, nil)
	if err != nil {
		return m, err
	}
	traced, err := opsPerSecond(w, seed, seconds/8, led, rec)
	if err != nil {
		return m, err
	}
	m.traceOverheadFrac = ratio(untraced, traced) - 1

	var traces []*trace.Trace
	deadline := time.Now().Add(time.Duration(seconds / 3 * float64(time.Second)))
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		var r ladderRep
		r, traces = ladder(seed, led, rec, rep)
		m.ladder = append(m.ladder, r)
	}
	if err := probeStore(&m, traces, rec); err != nil {
		return m, err
	}
	if err := probeSched(&m, seed, led, rec); err != nil {
		return m, err
	}
	if err := probeHarness(&m, seed, led, rec); err != nil {
		return m, err
	}
	probeDisk(&m, seed, led, rec)
	if err := probeServer(&m, seed, led, rec); err != nil {
		return m, err
	}
	probeCluster(&m, seed, led, rec)
	probeHost(&m)
	return m, rec.WriteJSONL(filepath.Join("bench", "out", "trace_"+w.Name+".jsonl"))
}

// probeStore times the trace store with a disk tier: a write-through
// put, a get a fresh store must answer from disk, and the same get
// again from memory.
func probeStore(m *layerMeasurement, traces []*trace.Trace, rec *Recorder) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	root := rec.Start("probe.store", 0, 0)
	defer rec.End(root)
	span := func(name string, f func()) float64 { return rec.timed(name, root, 0, f) }
	writer := trace.NewStore(trace.StoreOptions{Dir: dir})
	reader := trace.NewStore(trace.StoreOptions{Dir: dir})
	var put, disk, mem []float64
	for _, t := range traces {
		key := trace.KeyFromMeta(t.Meta)
		put = append(put, span("trace.Store.Put", func() { writer.Put(key, t) }))
		var ok bool
		disk = append(disk, span("trace.Store.Get disk", func() { _, ok = reader.Get(key) }))
		if !ok {
			return fmt.Errorf("trace store: %s/%s written but not read back", t.Meta.App, t.Meta.Variant)
		}
		mem = append(mem, span("trace.Store.Get memory", func() { reader.Get(key) }))
	}
	if st := reader.Stats(); st.DiskHits != uint64(len(traces)) || st.MemoryHits != uint64(len(traces)) {
		return fmt.Errorf("trace store: %d disk hits and %d memory hits, want %d each", st.DiskHits, st.MemoryHits, len(traces))
	}
	m.storePutMS, m.storeGetDiskMS, m.storeGetMemUS = median(put), median(disk), median(mem)*1e3
	return nil
}

// memoHits is how many memoized jobs probeSched times.
const memoHits = 2000

// probeSched times Engine.Run: the first run of each baseline cell, a
// memoized re-run, and a fresh engine answering from a populated cache
// directory.
func probeSched(m *layerMeasurement, seed int64, led *ledger, rec *Recorder) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	root := rec.Start("probe.sched", 0, 0)
	defer rec.End(root)
	ctx := context.Background()
	cells := baselineCells()
	run := func(eng *sched.Engine, name, path string) ([]float64, error) {
		var ms []float64
		for _, c := range cells {
			var rep cpu.Report
			var err error
			ms = append(ms, rec.timed(name, root, 0, func() { rep, err = eng.Run(ctx, c.job(seed)) }))
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", c.ID(), path, err)
			}
			led.see(c, path, rep)
		}
		return ms, nil
	}

	writer := sched.New(sched.Options{Workers: procs(), CacheDir: dir})
	cold, err := run(writer, "sched.Engine.Run cold", "scheduled")
	if err != nil {
		writer.Close()
		return err
	}
	sp := rec.Start("sched.Engine.Run memo x"+strconv.Itoa(memoHits), root, 0)
	var memo []float64
	before := mallocsNow()
	for i := 0; i < memoHits; i++ {
		memo = append(memo, timed(func() { _, err = writer.Run(ctx, cells[0].job(seed)) }))
	}
	m.memoHitAllocs = float64(mallocsNow()-before) / memoHits
	rec.End(sp)
	writer.Close()
	if err != nil {
		return err
	}

	reader := sched.New(sched.Options{Workers: procs(), CacheDir: dir})
	defer reader.Close()
	disk, err := run(reader, "sched.Engine.Run disk", "scheduled from disk")
	if err != nil {
		return err
	}
	if st := reader.Stats(); st.DiskHits != uint64(len(cells)) {
		return fmt.Errorf("sched: %d disk hits on a populated directory, want %d", st.DiskHits, len(cells))
	}
	m.coldCellMS, m.memoHitUS, m.diskHitUS = median(cold), median(memo)*1e3, median(disk)*1e3
	return nil
}

// probeHarness times planning, one cold sweep (whose manifest gives the
// stage shares and the hit rate), warm sweeps on the same engine and
// manifest assembly.
func probeHarness(m *layerMeasurement, seed int64, led *ledger, rec *Recorder) error {
	root := rec.Start("probe.harness", 0, 0)
	defer rec.End(root)
	eng := sched.New(sched.Options{Workers: procs()})
	defer eng.Close()
	spec := sweepSpec(seed, predTournament, harness.Config{Engine: eng})
	span := func(name string, f func()) float64 { return rec.timed(name, root, 0, f) }

	var plan *harness.SweepPlan
	var planMS []float64
	for i := 0; i < 10; i++ {
		var err error
		planMS = append(planMS, span("harness.PlanSweep", func() { plan, err = harness.PlanSweep(spec) }))
		if err != nil {
			return err
		}
	}
	m.planMS = median(planMS)

	sweep := func(name, path string) (float64, *harness.SweepManifest, error) {
		var man *harness.SweepManifest
		var err error
		ms := span(name, func() { man, err = harness.RunSweep(spec) })
		if err != nil {
			return 0, nil, err
		}
		led.manifest(path, man)
		return ms, man, nil
	}
	_, cold, err := sweep("harness.RunSweep cold", "swept")
	if err != nil {
		return err
	}
	m.stage = cold.Profile.Aggregate
	m.hitRate = cold.Scheduler.HitRate()
	var warm []float64
	for i := 0; i < 5; i++ {
		ms, _, err := sweep("harness.RunSweep warm", "swept warm")
		if err != nil {
			return err
		}
		warm = append(warm, ms)
	}
	m.warmSweepUSPerPoint = median(warm) * 1e3 / gridPoints

	results := func(cells []harness.PlanCell) ([]harness.CellResult, error) {
		out := make([]harness.CellResult, len(cells))
		for i, pc := range cells {
			rep, err := eng.Run(context.Background(), sched.Job{App: pc.App, Variant: pc.Setup.Variant,
				CPU: pc.Setup.CPU, Seed: seed, Scale: scale})
			if err != nil {
				return nil, err
			}
			out[i] = harness.CellResult{Status: harness.StatusOK, Detail: &core.Detail{
				Seeds:     []core.SeedReport{{Seed: seed, Counters: rep.Counters, Stalls: rep.Stalls}},
				Aggregate: rep,
			}}
		}
		return out, nil
	}
	baselines, err := results(plan.Baselines)
	if err != nil {
		return err
	}
	points, err := results(plan.Points)
	if err != nil {
		return err
	}
	var manifestMS []float64
	for i := 0; i < 10; i++ {
		var man *harness.SweepManifest
		manifestMS = append(manifestMS, span("harness.SweepPlan.Manifest", func() { man = plan.Manifest(baselines, points) }))
		led.manifest("assembled", man)
	}
	m.manifestMS = median(manifestMS)
	return nil
}

// probeDisk runs one sweep_disk round for its phase times and the
// cache-I/O share of the sweep that writes.
func probeDisk(m *layerMeasurement, seed int64, led *ledger, rec *Recorder) {
	_, phases, written := diskRound(seed, led, rec, 0)
	m.diskPhaseMS = make(map[string]float64, len(phases))
	for name, ms := range phases {
		m.diskPhaseMS[name] = median(ms)
	}
	if written != nil {
		m.diskStage = written.Profile.Aggregate
	}
}

const (
	probeCellHits  = 2000
	probeBatchHits = 200
)

// probeServer times the serving path from a bench-side middleware round
// the handler: a cell the server has never seen (capture and replay), a
// new timing configuration of a cell it has (trace hit, replay), then
// memo hits, single and batched.
func probeServer(m *layerMeasurement, seed int64, led *ledger, rec *Recorder) error {
	cold := baselineCells()
	hot := append([]cell(nil), cold...)
	for _, c := range cold {
		c.FXUs, c.BTAC, c.Predictor = 4, 8, predGshare
		hot = append(hot, c)
	}
	c, err := newServeClient(seed, hot, led, rec)
	if err != nil {
		return err
	}
	defer c.close()
	failedBefore := led.failed
	var coldMS, missMS []float64
	for i := range hot {
		ms := c.single(i, 0).ms
		if i < len(cold) {
			coldMS = append(coldMS, ms)
		} else {
			missMS = append(missMS, ms)
		}
	}
	if led.failed != failedBefore {
		return fmt.Errorf("server probe: %s", led.firstErr)
	}
	m.coldMS, m.replayMissMS = median(coldMS), median(missMS)

	primed := len(rec.Spans())
	st := newStream(seed, 0, len(hot))
	for i := 0; i < probeCellHits; i++ {
		c.single(st.rng.Intn(len(hot)), 0)
	}
	for i := 0; i < probeBatchHits; i++ {
		c.batch(st.rng.Intn(batchPoolSize), 0)
	}
	spans := rec.Spans()[primed:]
	self := selfTimes(spans)
	var batchUS, clientUS []float64
	for _, s := range spans {
		us := float64(s.EndNS-s.StartNS) / 1e3
		switch {
		case s.Name == "client.cell":
			clientUS = append(clientUS, float64(self[s.ID])/1e3)
		case strings.HasSuffix(s.Name, "/v1/cells"):
			m.cellHitUS = append(m.cellHitUS, us)
		case strings.HasSuffix(s.Name, "/v1/cells:batch"):
			batchUS = append(batchUS, us/batchCells)
		}
	}
	m.batchHitUSPerCell, m.clientSelfUS = median(batchUS), median(clientUS)
	m.rejected = float64(c.w.mw.rejected.Load())
	return nil
}

// probeCluster runs one clustered sweep with a middleware round each
// worker's handler.  The coordinator's own time is the sweep's wall
// time minus the time the busiest worker spent inside its handler.
func probeCluster(m *layerMeasurement, seed int64, led *ledger, rec *Recorder) {
	s, man, fleet := clusterSweep(seed, led, rec, 0)
	if man == nil || man.Cluster == nil {
		return
	}
	wallNS := s.ms * 1e6
	var busiest, busy float64
	for _, w := range fleet {
		b := float64(w.mw.busyNS.Load())
		busy += b
		busiest = max(busiest, b)
		m.clusterCaptures += w.eng.TraceStore().Stats().Captures
	}
	m.clusterSweepS = s.ms / 1e3
	m.coordSelfS = (wallNS - busiest) / 1e9
	m.workerBusyFrac = ratio(busy, wallNS*float64(len(fleet)))
	m.cluster = *man.Cluster
}

// probeHost reads this process's peak memory and garbage-collection
// cost, context for every timing above.
func probeHost(m *layerMeasurement) {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					m.peakRSSMB = kb / 1024
				}
			}
		}
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		m.gcCPUFrac = ratio(samples[0].Value.Float64(), samples[1].Value.Float64())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.gcPauseMS = float64(ms.PauseTotalNs) / 1e6
}
