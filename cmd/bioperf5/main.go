// Command bioperf5 regenerates the paper's tables and figures and
// exposes the underlying tools: the application profiler (Figure 1) and
// the kernel compiler/disassembler.
//
// Usage:
//
//	bioperf5 list
//	bioperf5 run <experiment>|all [-scale N] [-seeds a,b,c] [-trace P] [-json]
//	bioperf5 sweep [-fxus 2,3,4] [-btac off,8] [-variants v,...] [-apps a,...]
//	               [-workers N|host1:port,host2:port] [-cache-dir DIR] [-trace P]
//	               [-grid] [-json] [-spans DIR] [-cpuprofile FILE] [-memprofile FILE]
//	bioperf5 serve [-addr HOST:PORT] [-workers N] [-cache-dir DIR] [-trace P]
//	               [-cache-upstream URL] [-max-inflight N] [-request-timeout DUR]
//	               [-drain-timeout DUR] [-pprof] [-spans DIR]
//	bioperf5 fsck <dir> [<dir>...]
//	bioperf5 version [-json]
//	bioperf5 spans <spans.jsonl> [-json] [-chrome FILE]
//	bioperf5 trace <Blast|Clustalw|Fasta|Hmmer> <variant> [-scale N] [-seed N]
//	bioperf5 stats [application] [-scale N] [-seed N] [-json]
//	bioperf5 profile <Blast|Clustalw|Fasta|Hmmer> [-scale N]
//	bioperf5 disasm <Blast|Clustalw|Fasta|Hmmer> <variant>
//	bioperf5 variants
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bioperf5/internal/branch"
	"bioperf5/internal/cluster"
	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/fault"
	"bioperf5/internal/fsck"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/perf"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/workload"
)

func usage() {
	fmt.Fprintf(os.Stderr, `bioperf5: POWER5 bioinformatics workload study reproduction

commands:
  list                     list the experiments (one per paper table/figure)
  run <id>|all             regenerate a table/figure (-scale N, -seeds a,b,c;
                           -trace auto|capture|replay|off selects the trace
                           policy — the numbers are identical under every
                           policy; -json emits the machine-readable report)
  sweep                    full-factorial design-space sweep over FXU count x
                           BTAC sizing x direction predictor x predication
                           variant x application, run on the parallel
                           cache-aware fault-tolerant scheduler
                           (-fxus 2,3,4; -btac off,8;
                           -predictors 'tournament;tage:tables=4,hist=2..64'
                           semicolon-separated predictor specs;
                           -variants original,combination;
                           -apps all; -scale N; -seeds a,b,c;
                           -workers N local pool size, or a comma-separated
                           list of 'bioperf5 serve' URLs to shard the sweep
                           across remote workers — the merged manifest is
                           byte-identical to a single-node run;
                           -cache-dir DIR persists results across runs;
                           -retries N per-cell retry budget; -cell-timeout DUR
                           per-cell deadline; -resume DIR keeps cache + journal +
                           manifest under DIR and resumes a killed sweep;
                           -grid prints every point; -json emits the manifest;
                           -trace off disables capture-once/replay-many;
                           -spans DIR records a span per lifecycle stage and
                           writes spans.jsonl + trace.json (Perfetto-loadable)
                           under DIR; -cpuprofile/-memprofile FILE write
                           pprof profiles of the sweep;
                           BIOPERF5_FAULTS=spec injects deterministic faults)
  serve                    expose the engine as an HTTP/JSON service:
                           POST /v1/cells runs one cell, POST /v1/cells:batch
                           streams a batch as JSONL, GET /v1/experiments/{id}
                           serves a paper experiment byte-identical to
                           'run <id> -json', plus /healthz /readyz /metrics
                           (-addr HOST:PORT; -workers N; -cache-dir DIR;
                           -cache-upstream URL shares results and traces with
                           a hub server via GET/PUT /v1/cache and /v1/traces;
                           -trace P default trace policy for cells without a
                           "trace" field; -retries N; -cell-timeout DUR;
                           -max-inflight N
                           admission bound; -request-timeout DUR default
                           per-request deadline; -drain-timeout DUR graceful
                           SIGTERM drain budget; -pprof mounts net/http/pprof
                           under /debug/pprof/; -spans DIR records a span
                           per request and writes spans.jsonl + trace.json
                           under DIR at shutdown)
  branches <application>   per-static-branch predictability profile: every
                           conditional-branch site with execution/mispredict
                           counts, BTAC wrong-target attribution, and a
                           taxonomy class (biased, loop-exit, history, hard);
                           per-site counts sum exactly to the aggregate
                           counters (-variant V; -fxus N; -btac N;
                           -predictor SPEC; -scale N; -seeds a,b,c; -json)
  predictors               list the registered direction-predictor kinds as
                           canonical spec strings
  trace <application> <variant>
                           emit a per-instruction pipeline event trace as
                           JSONL (-scale N, -seed N, -cap N ring capacity)
  stats [application]      telemetry snapshot of a baseline run: counters,
                           CPI stall stack, cache/BTAC/profile metrics
                           (-scale N, -seed N, -json)
  profile <application>    gprof-style function breakout (-scale N)
  spans <spans.jsonl>      aggregate a recorded span log into a per-stage
                           profile: count, total, mean, max, share
                           (-json; -chrome FILE converts the log to a
                           Chrome trace-event file)
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
                           (-json; GET /v1/version serves the same document)

experiment ids accept short aliases: t1, t2, f1..f6.
`)
	os.Exit(2)
}

// simLimit bounds a single traced or snapshotted kernel invocation.
const simLimit = 500_000_000

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "branches":
		err = cmdBranches(os.Args[2:])
	case "predictors":
		err = cmdPredictors()
	case "serve":
		err = cmdServe(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "spans":
		err = cmdSpans(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "variants":
		err = cmdVariants()
	case "version":
		err = cmdVersion(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
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
	tracePolicy := fs.String("trace", "", "trace policy: auto (default; capture each functional run once, replay per timing config), capture, replay, or off (coupled execution)")
	if err := fs.Parse(args); err != nil {
		return harness.Config{}, nil, err
	}
	trace, err := core.ParseTracePolicy(*tracePolicy)
	if err != nil {
		return harness.Config{}, nil, fmt.Errorf("-trace: %w", err)
	}
	cfg := harness.Config{Scale: *scale, Trace: trace}
	seen := make(map[int64]bool)
	for _, s := range strings.Split(*seeds, ",") {
		s = strings.TrimSpace(s)
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cfg, nil, fmt.Errorf("bad seed %q: %w", s, err)
		}
		if v < 0 {
			return cfg, nil, fmt.Errorf("bad seed %q: seeds must be non-negative", s)
		}
		if seen[v] {
			return cfg, nil, fmt.Errorf("bad seed %q: duplicate seed", s)
		}
		seen[v] = true
		cfg.Seeds = append(cfg.Seeds, v)
	}
	return cfg, fs.Args(), nil
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
	var exps []*harness.Experiment
	if id == "all" {
		exps = harness.Registry()
	} else {
		e, err := harness.ByID(id)
		if err != nil {
			return err
		}
		exps = []*harness.Experiment{e}
	}
	if *jsonOut {
		var reps []*harness.Report
		for _, e := range exps {
			rep, err := harness.RunReport(e, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			reps = append(reps, rep)
		}
		if len(reps) == 1 {
			return reps[0].WriteJSON(os.Stdout)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reps)
	}
	for _, e := range exps {
		tab, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(tab.Render())
	}
	return nil
}

// parseIntList parses a comma-separated list of ints, mapping the
// word "off" to zero (used by -btac).
func parseIntList(flagName, s string, allowOff bool) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if allowOff && strings.EqualFold(part, "off") {
			out = append(out, 0)
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parsePredictorsFlag splits a -predictors value into predictor specs.
// Specs are separated by ';' (their parameter lists contain commas); a
// value without parameters may use commas instead ("gshare,tage").
// Every spec is validated up front so a typo fails with the registered
// kinds listed instead of deep inside the sweep.
func parsePredictorsFlag(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	sep := ";"
	if !strings.Contains(s, ";") && !strings.Contains(s, ":") {
		sep = ","
	}
	var out []string
	for _, part := range strings.Split(s, sep) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := branch.ParseSpec(part); err != nil {
			return nil, fmt.Errorf("-predictors: %w", err)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-predictors: no specs in %q", s)
	}
	return out, nil
}

// cmdPredictors lists every registered direction-predictor kind as its
// canonical all-defaults spec string.
func cmdPredictors() error {
	for _, spec := range branch.Registered() {
		fmt.Println(spec)
	}
	return nil
}

// cmdBranches profiles one application's static branches: replay the
// cell's trace with the per-PC profiler attached and print every
// conditional-branch site with its counts and taxonomy class.
func cmdBranches(args []string) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("branches: missing application (one of %s)",
			strings.Join(workload.Apps(), ", "))
	}
	app := args[0]
	fs := flag.NewFlagSet("branches", flag.ContinueOnError)
	variantFlag := fs.String("variant", "original", "predication variant (see `bioperf5 variants`)")
	fxusFlag := fs.Int("fxus", 0, "fixed-point unit count (0 = the POWER5 baseline)")
	btacFlag := fs.Int("btac", 0, "BTAC entry count (0 = no BTAC)")
	predFlag := fs.String("predictor", "", "direction-predictor spec (empty = the POWER5-like tournament; see `bioperf5 predictors`)")
	scale := fs.Int("scale", 1, "workload scale factor")
	seedsFlag := fs.String("seeds", "1,2,3", "comma-separated input seeds")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	v, err := parseVariant(*variantFlag)
	if err != nil {
		return err
	}
	if _, err := branch.ParseSpec(*predFlag); err != nil {
		return fmt.Errorf("-predictor: %w", err)
	}
	if *btacFlag < 0 {
		return fmt.Errorf("-btac: must be >= 0, got %d", *btacFlag)
	}
	fxus := *fxusFlag
	if fxus == 0 {
		fxus = core.Baseline().CPU.NumFXU
	}
	if fxus < 1 {
		return fmt.Errorf("-fxus: must be >= 1, got %d", *fxusFlag)
	}
	cfg := harness.Config{Scale: *scale}
	seen := make(map[int64]bool)
	for _, s := range strings.Split(*seedsFlag, ",") {
		s = strings.TrimSpace(s)
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad seed %q: want a non-negative integer", s)
		}
		if seen[n] {
			return fmt.Errorf("duplicate seed %d", n)
		}
		seen[n] = true
		cfg.Seeds = append(cfg.Seeds, n)
	}
	rep, err := harness.RunBranches(cfg, app, harness.SetupFor(v, fxus, *btacFlag, *predFlag))
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Println(rep.Table().Render())
	return nil
}

// cmdSweep runs a full-factorial design-space sweep on the parallel
// scheduler and prints the best configuration per application plus the
// scheduler's cache statistics.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fxusFlag := fs.String("fxus", "2,3,4", "comma-separated fixed-point unit counts")
	btacFlag := fs.String("btac", "off,8", "comma-separated BTAC entry counts ('off' = none)")
	predictorsFlag := fs.String("predictors", "", "semicolon-separated direction-predictor specs, e.g. 'tournament;tage:tables=4,hist=2..64' (empty = the POWER5-like default; see `bioperf5 predictors`)")
	variantsFlag := fs.String("variants", "original,combination", "comma-separated predication variants")
	appsFlag := fs.String("apps", "all", "comma-separated applications, or 'all'")
	workersFlag := fs.String("workers", "", "local worker pool size (default GOMAXPROCS), or a comma-separated list of remote `bioperf5 serve` URLs to run the sweep distributed")
	cacheDir := fs.String("cache-dir", "", "content-addressed on-disk result cache directory")
	retries := fs.Int("retries", 2, "per-cell retry budget for transient failures (with remote workers: the per-dispatch HTTP retry budget)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell simulation deadline, e.g. 30s (0 = none)")
	resume := fs.String("resume", "", "sweep state directory (disk cache + completion journal + manifest); re-running against it resumes only unfinished cells")
	grid := fs.Bool("grid", false, "print every grid point, not just the best per application")
	jsonOut := fs.Bool("json", false, "emit the JSON manifest instead of the summary table")
	spansDir := fs.String("spans", "", "record a span per lifecycle stage and write spans.jsonl + trace.json (Perfetto-loadable) under DIR")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to FILE")
	cfg, _, err := parseConfig(fs, args)
	if err != nil {
		return err
	}
	if *retries < 0 {
		return fmt.Errorf("-retries: must be >= 0, got %d", *retries)
	}
	if *cellTimeout < 0 {
		return fmt.Errorf("-cell-timeout: must be >= 0, got %v", *cellTimeout)
	}
	pool, hosts, err := parseWorkersFlag(*workersFlag)
	if err != nil {
		return err
	}
	if len(hosts) > 0 && *cacheDir != "" {
		return fmt.Errorf("sweep: -cache-dir is local-engine state; with remote -workers run `serve -cache-dir` on a hub and point the workers at it with -cache-upstream")
	}
	dir := *cacheDir
	var journal *sched.Journal
	var cjournal *cluster.Journal
	if *resume != "" {
		if *cacheDir != "" {
			return fmt.Errorf("-resume and -cache-dir are mutually exclusive: -resume DIR already keeps the result cache (plus journal.jsonl and manifest.json) under DIR")
		}
		if len(hosts) > 0 {
			// The coordinator has no local cache, so its journal carries
			// full results; the manifest still lands at DIR/manifest.json.
			cjournal, err = cluster.OpenJournal(filepath.Join(*resume, "journal.jsonl"))
			if err != nil {
				return fmt.Errorf("-resume: %w", err)
			}
			defer cjournal.Close()
		} else {
			dir = *resume
			journal, err = sched.OpenJournal(filepath.Join(*resume, "journal.jsonl"))
			if err != nil {
				return fmt.Errorf("-resume: %w", err)
			}
			defer journal.Close()
		}
	}
	injector, err := fault.FromEnv()
	if err != nil {
		return err
	}
	var clusterHTTP *http.Client
	if injector != nil {
		if len(hosts) > 0 {
			// Distributed mode: the local engine does not exist, so the
			// engine-site faults are meaningless here — but the network
			// sites target exactly this coordinator→worker transport.
			plan, perr := fault.PlanFromEnv()
			if perr != nil {
				return perr
			}
			injector = nil
			if plan.HasNetworkFaults() {
				clusterHTTP = &http.Client{Transport: &fault.ChaosTransport{Plan: plan}}
				fmt.Fprintf(os.Stderr, "bioperf5: network chaos enabled on the coordinator transport (%s=%s)\n",
					fault.EnvVar, os.Getenv(fault.EnvVar))
			}
			if plan.HasLocalFaults() {
				fmt.Fprintf(os.Stderr, "bioperf5: %s engine-site faults target the local engine; ignored with remote -workers (set them on the workers instead)\n", fault.EnvVar)
			}
		} else {
			fmt.Fprintf(os.Stderr, "bioperf5: fault injection enabled (%s=%s)\n",
				fault.EnvVar, os.Getenv(fault.EnvVar))
		}
	}
	fxus, err := parseIntList("fxus", *fxusFlag, false)
	if err != nil {
		return err
	}
	btac, err := parseIntList("btac", *btacFlag, true)
	if err != nil {
		return err
	}
	predictors, err := parsePredictorsFlag(*predictorsFlag)
	if err != nil {
		return err
	}
	var variants []kernels.Variant
	for _, name := range strings.Split(*variantsFlag, ",") {
		v, err := parseVariant(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		variants = append(variants, v)
	}
	apps := workload.Apps()
	if *appsFlag != "all" {
		apps = nil
		for _, a := range strings.Split(*appsFlag, ",") {
			apps = append(apps, strings.TrimSpace(a))
		}
	}
	// SIGINT/SIGTERM cancel pending cells instead of killing the
	// process: the sweep degrades, the journal and cache keep what
	// finished, and -resume picks up the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx
	var reg *telemetry.Registry
	if len(hosts) > 0 {
		// Distributed mode: no local engine — the coordinator owns its
		// own registry for the cluster.* counters and span histograms.
		reg = telemetry.NewRegistry()
	} else {
		eng := sched.New(sched.Options{
			Workers:     pool,
			CacheDir:    dir,
			Retries:     *retries,
			CellTimeout: *cellTimeout,
			Injector:    injector,
			Journal:     journal,
		})
		defer eng.Drain(context.Background())
		cfg.Engine = eng
		reg = eng.Registry()
	}
	var tracer *telemetry.Tracer
	if *spansDir != "" {
		// The registry hookup puts span.<stage>.us histograms in the
		// manifest's scheduler snapshot path for free.
		tracer = telemetry.NewTracer(0, reg)
		cfg.Context = telemetry.WithTracer(ctx, tracer)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	spec := harness.SweepSpec{
		FXUs:        fxus,
		BTACEntries: btac,
		Predictors:  predictors,
		Variants:    variants,
		Apps:        apps,
		Config:      cfg,
	}
	var m *harness.SweepManifest
	if len(hosts) > 0 {
		m, err = cluster.Run(cluster.Options{
			Workers:  hosts,
			Spec:     spec,
			Retries:  *retries,
			Journal:  cjournal,
			Registry: reg,
			HTTP:     clusterHTTP,
		})
	} else {
		m, err = harness.RunSweep(spec)
	}
	if err != nil {
		return err
	}
	if *resume != "" {
		_, msp := telemetry.StartSpan(cfg.Context, telemetry.StageManifest)
		werr := m.WriteJSONFile(filepath.Join(*resume, "manifest.json"))
		msp.End()
		if werr != nil {
			return fmt.Errorf("write manifest: %w", werr)
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if tracer != nil {
		if err := writeSpanFiles(*spansDir, tracer); err != nil {
			return fmt.Errorf("-spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bioperf5: wrote %d spans to %s (spans.jsonl + trace.json)\n",
			tracer.Len(), *spansDir)
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "bioperf5: span capacity reached, dropped %d spans\n", n)
		}
	}
	if *jsonOut {
		if err := m.WriteJSON(os.Stdout); err != nil {
			return err
		}
		return sweepDegradedSummary(m)
	}
	if *grid {
		fmt.Println(m.Grid().Render())
	}
	fmt.Println(m.Summary().Render())
	if tbl := m.ProfileTable(); tbl != nil {
		fmt.Println(tbl.Render())
	}
	if cs := m.Cluster; cs != nil {
		printClusterSummary(cs)
	} else {
		st := m.Scheduler
		poolDesc := fmt.Sprintf("%d workers", st.Workers)
		if st.Workers == 1 {
			poolDesc = "1 worker"
		}
		fmt.Printf("scheduler: %d jobs on %s, %d simulated, cache hit rate %.0f%% (%d in-memory, %d disk)\n",
			st.Submitted, poolDesc, st.Computed, 100*st.HitRate(), st.MemoryHits, st.DiskHits)
		if st.DiskCorrupt > 0 {
			fmt.Printf("scheduler: %d corrupted disk cache entries detected and recomputed\n", st.DiskCorrupt)
		}
		if st.Retries > 0 || st.Timeouts > 0 || st.Injected > 0 {
			fmt.Printf("scheduler: %d retries, %d cell timeouts, %d injected faults\n",
				st.Retries, st.Timeouts, st.Injected)
		}
		if st.Resumed > 0 {
			fmt.Printf("scheduler: resumed — %d completed cells skipped via the journal and cache\n", st.Resumed)
		}
	}
	fmt.Println(sweepElapsedLine(m))
	return sweepDegradedSummary(m)
}

// printClusterSummary renders the distributed fabric's closing lines:
// how the fleet behaved, and what fraction of cells were served
// without fresh simulation (worker trace/cache hits plus cells
// replayed from the coordinator journal).
func printClusterSummary(cs *harness.ClusterStats) {
	fmt.Printf("cluster: %d cells on %d workers — %d completed, %d failed, %d resumed from journal\n",
		cs.Cells, cs.Workers, cs.Completed, cs.FailedCells, cs.Resumed)
	fmt.Printf("cluster: %d dispatches in %d batches (%d stolen, %d re-dispatched, %d duplicate results dropped, %d HTTP retries)\n",
		cs.Dispatched, cs.Batches, cs.Stolen, cs.Redispatched, cs.Duplicates, cs.Retries)
	if cs.Cells > 0 {
		fmt.Printf("cluster: cache hit rate %.0f%% (%d trace/cache-served + %d journal-resumed of %d cells)\n",
			100*float64(cs.CacheHits+cs.Resumed)/float64(cs.Cells),
			cs.CacheHits, cs.Resumed, cs.Cells)
	}
	if cs.WorkersLost > 0 {
		fmt.Printf("cluster: %d worker(s) lost mid-sweep; their shards were redistributed\n", cs.WorkersLost)
	}
}

// parseWorkersFlag reads -workers as either a local pool size ("8") or
// a comma-separated list of remote worker URLs ("host:8077,host2:8077").
func parseWorkersFlag(s string) (pool int, hosts []string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, aerr := strconv.Atoi(s); aerr == nil {
		if n < 0 {
			return 0, nil, fmt.Errorf("-workers: pool size must be >= 0, got %d", n)
		}
		return n, nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			hosts = append(hosts, part)
		}
	}
	if len(hosts) == 0 {
		return 0, nil, fmt.Errorf("-workers: want a pool size or a comma-separated worker list, got %q", s)
	}
	return 0, hosts, nil
}

// sweepElapsedLine renders the closing wall-clock summary.  When the
// manifest carries a stage profile it also says where that time went:
// total attributed across workers (which exceeds wall time whenever
// the sweep ran in parallel) and the dominant stage with its share.
func sweepElapsedLine(m *harness.SweepManifest) string {
	wall := time.Duration(m.ElapsedMS) * time.Millisecond
	p := m.Profile
	if p == nil || p.Aggregate.IsZero() || len(p.Stages) == 0 || p.Stages[0].NS == 0 {
		return fmt.Sprintf("elapsed: %s wall", wall)
	}
	var attributed int64
	for _, s := range p.Stages {
		attributed += s.NS
	}
	dom := p.Stages[0]
	return fmt.Sprintf("elapsed: %s wall; %s attributed across workers; dominant stage: %s (%s, %.0f%%)",
		wall, time.Duration(attributed).Round(time.Millisecond),
		dom.Name, time.Duration(dom.NS).Round(time.Millisecond),
		100*float64(dom.NS)/float64(attributed))
}

// writeHeapProfile snapshots the heap into path, after a GC so the
// profile reflects live objects rather than garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeSpanFiles exports a tracer's spans under dir in both formats:
// spans.jsonl (the loadable log `bioperf5 spans` reads) and trace.json
// (Chrome trace-event, for Perfetto / chrome://tracing).
func writeSpanFiles(dir string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(cf); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

// sweepDegradedSummary reports degraded cells on stderr and returns a
// nonzero-exit error when the manifest is partial, so scripted sweeps
// cannot mistake a degraded run for a complete one.
func sweepDegradedSummary(m *harness.SweepManifest) error {
	if m.Degraded == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "bioperf5: %d of %d cells degraded:\n", m.Degraded, len(m.Points))
	for _, p := range m.DegradedPoints() {
		btac := strconv.Itoa(p.BTACEntries)
		if p.BTACEntries == 0 {
			btac = "off"
		}
		fmt.Fprintf(os.Stderr, "  %s/%s FXUs=%d BTAC=%s: %s (%s)\n",
			p.App, p.Variant, p.FXUs, btac, p.Status, p.Error)
	}
	return fmt.Errorf("sweep: %d of %d cells degraded (re-run with -resume to retry them)",
		m.Degraded, len(m.Points))
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
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
	tracePolicy := fs.String("trace", "", "default trace policy for cells without a \"trace\" field: auto (default), capture, replay, or off")
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
	injector, err := fault.FromEnv()
	if err != nil {
		return err
	}
	// The network fault sites apply to this worker's upstream hub
	// traffic (shared result cache and trace tier), not just to the
	// coordinator: a chaos plan set on a worker exercises the tiers'
	// verify-and-degrade paths over a hostile wire.
	var cacheTransport http.RoundTripper
	if injector != nil && *cacheUpstream != "" {
		if plan, perr := fault.PlanFromEnv(); perr == nil && plan != nil && plan.HasNetworkFaults() {
			cacheTransport = &fault.ChaosTransport{Plan: plan}
			fmt.Fprintf(os.Stderr, "bioperf5: network chaos enabled on the cache-upstream transport (%s=%s)\n",
				fault.EnvVar, os.Getenv(fault.EnvVar))
		}
	}
	eng := sched.New(sched.Options{
		Workers:        *workers,
		CacheDir:       *cacheDir,
		CacheUpstream:  *cacheUpstream,
		CacheTransport: cacheTransport,
		Retries:        *retries,
		CellTimeout:    *cellTimeout,
		Injector:       injector,
	})
	var tracer *telemetry.Tracer
	if *spansDir != "" {
		tracer = telemetry.NewTracer(0, eng.Registry())
	}
	srv := server.New(server.Options{
		Engine:         eng,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *reqTimeout,
		DefaultTrace:   defaultTrace,
		Tracer:         tracer,
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
		eng.Drain(context.Background())
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
	if err := eng.Drain(sctx); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	if tracer != nil {
		if err := writeSpanFiles(*spansDir, tracer); err != nil {
			return fmt.Errorf("-spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bioperf5: wrote %d spans to %s (spans.jsonl + trace.json)\n",
			tracer.Len(), *spansDir)
	}
	fmt.Fprintln(os.Stderr, "bioperf5: drained cleanly")
	return nil
}

// cmdTrace runs one kernel invocation with the pipeline event trace
// attached and streams the per-instruction lifecycle records as JSONL.
func cmdTrace(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("trace: need <application> <variant>")
	}
	k, err := kernels.ByApp(args[0])
	if err != nil {
		return err
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
	run, err := k.NewRun(*seed, *scale)
	if err != nil {
		return err
	}
	buf := telemetry.NewTraceBuffer(*capacity)
	if _, err := kernels.SimulateObserved(k, v, run, cpu.POWER5Baseline(), simLimit,
		kernels.Observer{Trace: buf}); err != nil {
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
	k, err := kernels.ByApp(app)
	if err != nil {
		return statsReport{}, err
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return statsReport{}, err
	}
	reg := telemetry.NewRegistry()
	if _, err := kernels.SimulateObserved(k, kernels.Branchy, run, cpu.POWER5Baseline(),
		simLimit, kernels.Observer{Registry: reg}); err != nil {
		return statsReport{}, err
	}
	injector, err := fault.FromEnv()
	if err != nil {
		return statsReport{}, err
	}
	eng := sched.New(sched.Options{Workers: 1, Registry: reg, Retries: 2, Injector: injector})
	_, schedErr := eng.Run(context.Background(), sched.Job{
		App: app, Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(),
		Seed: seed, Scale: scale,
	})
	eng.Close()
	if schedErr != nil {
		return statsReport{}, schedErr
	}
	res, err := workload.Run(app, scale, seed)
	if err != nil {
		return statsReport{}, err
	}
	p := perf.New()
	for _, e := range res.Breakdown {
		p.Add(e.Name, e.Time, e.Calls)
	}
	p.PublishTo(reg)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
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
	p := perf.New()
	for _, e := range res.Breakdown {
		p.Add(e.Name, e.Time, e.Calls)
	}
	fmt.Print(p.Format())
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
		cf, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTraceData(cf, spans); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bioperf5: wrote Chrome trace-event file %s (%d events)\n",
			*chromeOut, len(spans))
	}
	stats := aggregateSpans(spans)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(stats)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
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
