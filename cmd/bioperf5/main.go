// Command bioperf5 regenerates the paper's tables and figures, sweeps
// and serves the design space around them, and exposes the underlying
// tools (profiler, tracer, disassembler, store scrubber).  Run it
// without arguments for the command reference; `bioperf5 <command> -h`
// lists a command's flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bioperf5/internal/branch"
	"bioperf5/internal/cas"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/fault"
	"bioperf5/internal/fsck"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/workload"
)

func usage() {
	fmt.Fprintf(os.Stderr, `bioperf5: POWER5 bioinformatics workload study reproduction

commands (flags: bioperf5 <command> [arguments] -h):
  list                     list the experiments (one per paper table/figure)
  run <id>|all             regenerate a table/figure; the numbers are identical
                           under every -trace policy, -json emits the
                           machine-readable report
  sweep                    full-factorial design-space sweep over FXU count x
                           BTAC sizing x direction predictor x predication
                           variant x application, run on the parallel
                           cache-aware fault-tolerant scheduler or, with
                           -workers host1,host2, sharded across 'bioperf5
                           serve' workers into a byte-identical manifest;
                           -resume DIR resumes a killed sweep, -spans DIR and
                           -cpuprofile/-memprofile FILE say where the time
                           went, BIOPERF5_FAULTS=spec injects deterministic
                           faults
  serve                    expose the engine as an HTTP/JSON service:
                           POST /v1/cells runs one cell, POST /v1/cells:batch
                           streams a batch as JSONL, GET /v1/experiments/{id}
                           serves a paper experiment byte-identical to
                           'run <id> -json', plus /healthz /readyz /metrics;
                           -cache-upstream URL shares results and traces with
                           a hub server via GET/PUT /v1/cache and /v1/traces
  branches <application>   per-static-branch predictability profile: every
                           conditional-branch site with execution/mispredict
                           counts, BTAC wrong-target attribution, and a
                           taxonomy class (biased, loop-exit, history, hard);
                           per-site counts sum exactly to the aggregate
                           counters
  predictors               list the registered direction-predictor kinds as
                           canonical spec strings
  trace <application> <variant>
                           emit a per-instruction pipeline event trace as JSONL
  stats [application]      telemetry snapshot of a baseline run: counters,
                           CPI stall stack, cache/BTAC/profile metrics
  profile <application>    gprof-style function breakout
  spans <spans.jsonl>      aggregate a recorded span log into a per-stage
                           profile: count, total, mean, max, share
                           (-chrome FILE converts the log to a Chrome
                           trace-event file)
  fsck <dir> [<dir>...]    scrub sweep state directories (result cache,
                           trace store, resume dir): verify every
                           checksum, move corrupt files into a
                           quarantine/ sidecar (never delete), repair
                           torn journal tails, print a JSON report and
                           exit nonzero when damage was found; re-running
                           the sweep with -resume then recomputes only
                           the quarantined cells
  disasm <application> <variant>
                           show the compiled DP kernel for a predication variant
  variants                 list predication variants
  version                  print the binary's build identity and wire schema
                           (GET /v1/version serves the same document)

experiment ids accept short aliases: t1, t2, f1..f6.
`)
	os.Exit(2)
}

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string) error{
	"list":       func([]string) error { return cmdList() },
	"run":        cmdRun,
	"sweep":      cmdSweep,
	"branches":   cmdBranches,
	"predictors": func([]string) error { return cmdPredictors() },
	"serve":      cmdServe,
	"trace":      cmdTrace,
	"stats":      cmdStats,
	"profile":    cmdProfile,
	"spans":      cmdSpans,
	"fsck":       cmdFsck,
	"disasm":     cmdDisasm,
	"variants":   func([]string) error { return cmdVariants() },
	"version":    cmdVersion,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		usage()
	}
	if err := commands[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "bioperf5:", err)
		os.Exit(1)
	}
}

func cmdList() error {
	for _, e := range harness.Registry() {
		fmt.Printf("%-8s %s\n", e.ID, e.Title)
	}
	return nil
}

func parseConfig(fs *flag.FlagSet, args []string) (harness.Config, []string, error) {
	scale := fs.Int("scale", 1, "workload scale factor")
	seeds := fs.String("seeds", "1,2,3", "comma-separated input seeds")
	tracePolicy := fs.String("trace", "", "trace policy: auto (default; capture each functional run once, replay per timing config) or off (coupled execution)")
	if err := fs.Parse(args); err != nil {
		return harness.Config{}, nil, err
	}
	trace, err := core.ParseTracePolicy(*tracePolicy)
	if err != nil {
		return harness.Config{}, nil, fmt.Errorf("-trace: %w", err)
	}
	cfg := harness.Config{Scale: *scale, Trace: trace}
	cfg.Seeds, err = harness.ParseSeeds(*seeds)
	return cfg, fs.Args(), err
}

func cmdRun(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("run: missing experiment id (try `bioperf5 list`)")
	}
	id := args[0]
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the machine-readable report as JSON")
	cfg, _, err := parseConfig(fs, args[1:])
	if err != nil {
		return err
	}
	exps := harness.Registry()
	if id != "all" {
		e, err := harness.ByID(id)
		if err != nil {
			return err
		}
		exps = []*harness.Experiment{e}
	}
	reps, err := harness.RunPaper(cfg, exps...)
	if *jsonOut {
		switch {
		case err != nil:
			return err
		case len(reps) == 1:
			return reps[0].WriteJSON(os.Stdout)
		}
		return writeJSON(reps)
	}
	for _, rep := range reps {
		fmt.Println(rep.Table().Render())
	}
	return err
}

// cmdPredictors lists every registered direction-predictor kind as its
// canonical all-defaults spec string.
func cmdPredictors() error {
	for _, spec := range branch.Registered() {
		fmt.Println(spec)
	}
	return nil
}

// branchesCell reads the `branches` arguments into the canonical cell
// they name — the CLI's spelling of what a /v1/cells body asks for.
func branchesCell(args []string) (cell harness.Cell, jsonOut bool, err error) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return cell, false, fmt.Errorf("branches: missing application (one of %s)",
			strings.Join(workload.Apps(), ", "))
	}
	cell.App = args[0]
	fs := flag.NewFlagSet("branches", flag.ContinueOnError)
	fs.StringVar(&cell.Variant, "variant", "original", "predication variant (see `bioperf5 variants`)")
	fs.IntVar(&cell.FXUs, "fxus", 0, "fixed-point unit count (0 = the POWER5 baseline)")
	fs.IntVar(&cell.BTACEntries, "btac", 0, "BTAC entry count (0 = no BTAC)")
	fs.StringVar(&cell.Predictor, "predictor", "", "direction-predictor spec (empty = the POWER5-like tournament; see `bioperf5 predictors`)")
	fs.IntVar(&cell.Scale, "scale", 1, "workload scale factor")
	seeds := fs.String("seeds", "1,2,3", "comma-separated input seeds")
	fs.BoolVar(&jsonOut, "json", false, "emit the machine-readable report as JSON")
	if err = fs.Parse(args[1:]); err != nil {
		return cell, false, err
	}
	if cell.Seeds, err = harness.ParseSeeds(*seeds); err != nil {
		return cell, false, err
	}
	cell, err = cell.Canonical()
	return cell, jsonOut, err
}

// cmdBranches profiles one application's static branches: replay the
// cell's trace with the per-PC profiler attached and print every
// conditional-branch site with its counts and taxonomy class.
func cmdBranches(args []string) error {
	cell, jsonOut, err := branchesCell(args)
	if err != nil {
		return err
	}
	rep, err := harness.RunBranches(harness.Config{Scale: cell.Scale, Seeds: cell.Seeds},
		cell.App, cell.Setup())
	if err != nil {
		return err
	}
	if jsonOut {
		return writeJSON(rep)
	}
	fmt.Println(rep.Table().Render())
	return nil
}

// writeJSON prints v on stdout as indented JSON.
func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// execEnv is what a command that runs cells executes on: the local
// engine (or, for a distributed sweep, none), the registry its metrics
// land in, the BIOPERF5_FAULTS plan split between the engine's injector
// and the outbound HTTP transport, and the span tracer.  sweep, serve
// and stats all open theirs with openEnv.
type execEnv struct {
	eng      *sched.Engine       // nil when cells run on remote workers
	reg      *telemetry.Registry // the engine's, or the coordinator's own
	chaos    http.RoundTripper   // network faults for the outbound transport; nil when none are armed
	tracer   *telemetry.Tracer   // nil without -spans
	spansDir string
}

// openEnv builds the environment.  o is the engine the flags describe;
// remote means there is no local engine (the sweep runs on workers);
// wire names the outbound HTTP transport the plan's network fault
// sites apply to ("coordinator", "cache-upstream"), "" when the command
// has none.
func openEnv(o sched.Options, remote bool, wire, spansDir string) (*execEnv, error) {
	plan, err := fault.PlanFromEnv()
	if err != nil {
		return nil, err
	}
	env := &execEnv{spansDir: spansDir}
	if plan != nil {
		spec := fault.EnvVar + "=" + os.Getenv(fault.EnvVar)
		if wire != "" && plan.HasNetworkFaults() {
			env.chaos = &fault.ChaosTransport{Plan: plan}
			fmt.Fprintf(os.Stderr, "bioperf5: network chaos enabled on the %s transport (%s)\n", wire, spec)
		}
		switch {
		case !remote:
			o.Injector = plan
			fmt.Fprintf(os.Stderr, "bioperf5: fault injection enabled (%s)\n", spec)
		case plan.HasLocalFaults():
			fmt.Fprintf(os.Stderr, "bioperf5: %s engine-site faults target the local engine; ignored with remote -workers (set them on the workers instead)\n", fault.EnvVar)
		}
	}
	if remote {
		env.reg = telemetry.NewRegistry()
	} else {
		o.CacheTransport = env.chaos
		env.eng = sched.New(o)
		env.reg = env.eng.Registry()
	}
	if spansDir != "" {
		// The registry hookup puts span.<stage>.us histograms beside the
		// engine's (or the coordinator's) own metrics for free.
		env.tracer = telemetry.NewTracer(0, env.reg)
	}
	return env, nil
}

// flushSpans exports the recorded spans under the -spans directory in
// both formats: spans.jsonl (the loadable log `bioperf5 spans` reads)
// and trace.json (Chrome trace-event, for Perfetto / chrome://tracing).
func (env *execEnv) flushSpans() error {
	if env.tracer == nil {
		return nil
	}
	err := cas.WriteFileAtomic(filepath.Join(env.spansDir, "spans.jsonl"), env.tracer.WriteJSONL)
	if err == nil {
		err = cas.WriteFileAtomic(filepath.Join(env.spansDir, "trace.json"), env.tracer.WriteChromeTrace)
	}
	if err != nil {
		return fmt.Errorf("-spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bioperf5: wrote %d spans to %s (spans.jsonl + trace.json)\n",
		env.tracer.Len(), env.spansDir)
	if n := env.tracer.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "bioperf5: span capacity reached, dropped %d spans\n", n)
	}
	return nil
}

// cmdFsck scrubs one or more sweep state directories with the store
// integrity scrubber, prints the JSON report, and exits nonzero when
// damage was found — so cron jobs and CI can gate on a clean tree.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("fsck: need at least one state directory (a -cache-dir or -resume dir)")
	}
	rep, err := fsck.Run(fsck.Options{Dirs: fs.Args()})
	if err != nil {
		return err
	}
	if err := writeJSON(rep); err != nil {
		return err
	}
	if rep.Damaged > 0 {
		return fmt.Errorf("fsck: %d damaged file(s) — %d quarantined, %d repaired (re-run the sweep with -resume to recompute)",
			rep.Damaged, rep.Quarantined, rep.Repaired)
	}
	return nil
}

// cmdServe exposes the simulation engine as an HTTP/JSON service and
// runs it until SIGINT/SIGTERM, then drains gracefully: readiness
// flips to 503, in-flight cells finish, the listener shuts down, and
// the engine's workers are drained — all inside the -drain-timeout
// budget.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "content-addressed on-disk result cache directory")
	retries := fs.Int("retries", 2, "per-cell retry budget for transient failures")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell simulation deadline, e.g. 30s (0 = none)")
	cacheUpstream := fs.String("cache-upstream", "", "base URL of a shared cache hub; result-cache and trace misses probe its /v1/cache and /v1/traces endpoints and fresh entries are pushed back")
	maxInflight := fs.Int("max-inflight", 0, "admission bound on in-flight cells (0 = 4x GOMAXPROCS)")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "default per-request deadline; clients override with ?timeout= (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget after SIGTERM")
	tracePolicy := fs.String("trace", "", "default trace policy for cells without a \"trace\" field: auto (default) or off")
	enablePprof := fs.Bool("pprof", false, "mount the net/http/pprof diagnostics handlers under /debug/pprof/")
	spansDir := fs.String("spans", "", "record a span per request and write spans.jsonl + trace.json under DIR at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defaultTrace, err := core.ParseTracePolicy(*tracePolicy)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries: must be >= 0, got %d", *retries)
	}
	if *cellTimeout < 0 || *reqTimeout < 0 || *drainTimeout <= 0 {
		return fmt.Errorf("-cell-timeout and -request-timeout must be >= 0 and -drain-timeout > 0")
	}
	// The network fault sites apply to this worker's upstream hub
	// traffic (shared result cache and trace tier), not just to the
	// coordinator: a chaos plan set on a worker exercises the tiers'
	// verify-and-degrade paths over a hostile wire.
	wire := ""
	if *cacheUpstream != "" {
		wire = "cache-upstream"
	}
	env, err := openEnv(sched.Options{Workers: *workers, CacheDir: *cacheDir, CacheUpstream: *cacheUpstream,
		Retries: *retries, CellTimeout: *cellTimeout}, false, wire, *spansDir)
	if err != nil {
		return err
	}
	srv := server.New(server.Options{
		Engine:         env.eng,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *reqTimeout,
		DefaultTrace:   defaultTrace,
		Tracer:         env.tracer,
		EnablePprof:    *enablePprof,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	fmt.Fprintf(os.Stderr, "bioperf5: serving on http://%s\n", *addr)
	select {
	case err := <-errc:
		env.eng.Drain(context.Background())
		return err // the listener died before any signal
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "bioperf5: draining (in-flight requests finish; new requests get 503)")
	srv.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := env.eng.Drain(sctx); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	if err := env.flushSpans(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bioperf5: drained cleanly")
	return nil
}

// cmdTrace runs one kernel invocation through core.Simulate (default
// policy: captured once, then replayed) with the pipeline event trace
// attached and streams the per-instruction lifecycle records as JSONL.
func cmdTrace(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("trace: need <application> <variant>")
	}
	v, err := parseVariant(args[1])
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale factor")
	seed := fs.Int64("seed", 1, "input seed")
	capacity := fs.Int("cap", telemetry.DefaultTraceCapacity, "trace ring capacity (events)")
	if err := fs.Parse(args[2:]); err != nil {
		return err
	}
	buf := telemetry.NewTraceBuffer(*capacity)
	if _, err := core.Simulate(core.Request{App: args[0], Variant: v, Seeds: []int64{*seed}, Scale: *scale,
		CPU: cpu.POWER5Baseline(), Observer: kernels.Observer{Trace: buf}}); err != nil {
		return err
	}
	if n := buf.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "bioperf5: trace ring full, dropped %d oldest events (raise -cap)\n", n)
	}
	return buf.WriteJSONL(os.Stdout)
}

// statsReport is the JSON shape of one application's stats snapshot.
type statsReport struct {
	App      string             `json:"app"`
	Variant  string             `json:"variant"`
	Snapshot telemetry.Snapshot `json:"snapshot"`
}

// statsFor runs app's kernel on the POWER5 baseline with a telemetry
// registry attached, folds the application profiler into the same
// registry, and returns the combined snapshot.  The same cell is also
// run once through a single-worker scheduler publishing into the same
// registry, so the sched.* counters — including the fault and retry
// counters, live when BIOPERF5_FAULTS is set — appear in the snapshot.
func statsFor(app string, scale int, seed int64) (statsReport, error) {
	reg := telemetry.NewRegistry()
	// TraceOff: the snapshot includes the live cache and memory
	// statistics, which only the coupled path has.
	if _, err := core.Simulate(core.Request{App: app, Variant: kernels.Branchy, Seeds: []int64{seed},
		Scale: scale, CPU: cpu.POWER5Baseline(), Trace: core.TraceOff,
		Observer: kernels.Observer{Registry: reg}}); err != nil {
		return statsReport{}, err
	}
	env, err := openEnv(sched.Options{Workers: 1, Registry: reg, Retries: 2}, false, "", "")
	if err != nil {
		return statsReport{}, err
	}
	_, schedErr := harness.CellStats(harness.Config{Scale: scale, Seeds: []int64{seed}, Engine: env.eng},
		app, core.Baseline())
	env.eng.Close()
	if schedErr != nil {
		return statsReport{}, schedErr
	}
	res, err := workload.Run(app, scale, seed)
	if err != nil {
		return statsReport{}, err
	}
	res.Profile.PublishTo(reg)
	return statsReport{App: app, Variant: kernels.Branchy.String(), Snapshot: reg.Snapshot(8)}, nil
}

// cmdStats prints the telemetry snapshot of a baseline run — the CPU
// counters and CPI stall stack, cache and BTAC metrics, and the
// function-level profile, all drawn from one registry.
func cmdStats(args []string) error {
	apps := workload.Apps()
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		apps = []string{args[0]}
		args = args[1:]
	}
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale factor")
	seed := fs.Int64("seed", 1, "input seed")
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reports []statsReport
	for _, app := range apps {
		rep, err := statsFor(app, *scale, *seed)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	if *jsonOut {
		return writeJSON(reports)
	}
	for _, rep := range reports {
		fmt.Printf("== %s (%s, POWER5 baseline) ==\n", rep.App, rep.Variant)
		fmt.Println(rep.Snapshot.Format())
	}
	return nil
}

func cmdProfile(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("profile: missing application (one of %v)", workload.Apps())
	}
	app := args[0]
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale factor")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	res, err := workload.Run(app, *scale, 1)
	if err != nil {
		return err
	}
	fmt.Println(res.Summary)
	fmt.Print(res.Profile.Format())
	return nil
}

// spanStat is one stage row of the aggregated spans report.
type spanStat struct {
	Stage   string `json:"stage"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MeanNS  int64  `json:"mean_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// aggregateSpans folds a span log into per-stage statistics, sorted by
// total time descending.
func aggregateSpans(spans []telemetry.SpanData) []spanStat {
	byName := map[string]*spanStat{}
	for _, d := range spans {
		st := byName[d.Name]
		if st == nil {
			st = &spanStat{Stage: d.Name}
			byName[d.Name] = st
		}
		st.Count++
		st.TotalNS += d.DurNS
		if d.DurNS > st.MaxNS {
			st.MaxNS = d.DurNS
		}
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		st.MeanNS = st.TotalNS / int64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// cmdSpans aggregates a recorded span log (sweep -spans / serve -spans)
// into a per-stage profile, and optionally converts it to a Chrome
// trace-event file for Perfetto.
func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the aggregated profile as JSON")
	chromeOut := fs.String("chrome", "", "also convert the span log to a Chrome trace-event file at FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spans: need exactly one spans.jsonl file (written by sweep -spans or serve -spans)")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := telemetry.ReadSpansJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("spans: %s holds no spans", fs.Arg(0))
	}
	if *chromeOut != "" {
		if err := cas.WriteFileAtomic(*chromeOut, func(w io.Writer) error {
			return telemetry.WriteChromeTraceData(w, spans)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bioperf5: wrote Chrome trace-event file %s (%d events)\n",
			*chromeOut, len(spans))
	}
	stats := aggregateSpans(spans)
	if *jsonOut {
		return writeJSON(stats)
	}
	fmt.Printf("%d spans, %d stages\n", len(spans), len(stats))
	fmt.Printf("%-16s %8s %12s %12s %12s\n", "stage", "count", "total", "mean", "max")
	for _, st := range stats {
		fmt.Printf("%-16s %8d %12s %12s %12s\n", st.Stage, st.Count,
			time.Duration(st.TotalNS).Round(time.Microsecond),
			time.Duration(st.MeanNS).Round(time.Microsecond),
			time.Duration(st.MaxNS).Round(time.Microsecond))
	}
	fmt.Println("\nnote: stages nest (sched.execute contains capture/replay/cache), so totals overlap")
	return nil
}

func parseVariant(name string) (kernels.Variant, error) {
	v, err := kernels.VariantByName(name)
	if err != nil {
		return 0, fmt.Errorf("unknown variant %q (try `bioperf5 variants`)", name)
	}
	return v, nil
}

func cmdDisasm(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("disasm: need <application> <variant>")
	}
	k, err := kernels.ByApp(args[0])
	if err != nil {
		return err
	}
	v, err := parseVariant(args[1])
	if err != nil {
		return err
	}
	prog, st, err := k.Compile(v)
	if err != nil {
		return err
	}
	fmt.Printf("%s / %s: %d instructions, %d spill slots, %d hammocks converted\n\n",
		k.Name, v, prog.Len(), st.SpillSlots, st.HammocksConverted)
	fmt.Print(prog.Disasm())
	return nil
}

func cmdVariants() error {
	for v := kernels.Branchy; v < kernels.NumVariants; v++ {
		fmt.Println(v.String())
	}
	return nil
}

// cmdVersion prints the binary's build identity and wire schema — the
// same document GET /v1/version serves, which the cluster coordinator
// handshakes on before dispatching work.
func cmdVersion(args []string) error {
	fs := flag.NewFlagSet("version", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit JSON (the exact GET /v1/version body)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := server.BuildVersion()
	if *jsonOut {
		return writeJSON(v)
	}
	fmt.Printf("bioperf5 %s\n", v.Version)
	fmt.Printf("schema:   %s\n", v.Schema)
	if v.GoVersion != "" {
		fmt.Printf("go:       %s\n", v.GoVersion)
	}
	if v.Revision != "" {
		dirty := ""
		if v.Modified {
			dirty = " (modified)"
		}
		fmt.Printf("revision: %s%s\n", v.Revision, dirty)
	}
	return nil
}
