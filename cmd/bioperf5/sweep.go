package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"bioperf5/internal/cas"
	"bioperf5/internal/cluster"
	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
)

// sweepFlags is a parsed `sweep` command line.
type sweepFlags struct {
	spec                   harness.SweepSpec
	engine                 sched.Options // the local engine: pool, cache dir, retries, cell deadline
	hosts                  []string      // remote workers; non-empty = distributed
	resume, spansDir       string
	cpuprofile, memprofile string
	grid, jsonOut          bool
}

// cmdSweep runs a full-factorial design-space sweep in four steps:
// parse the flags into a spec, open the execution environment (the
// local parallel scheduler with its cache, or just a registry when
// remote workers run the cells), run, report.
func cmdSweep(args []string) error {
	f, err := parseSweepFlags(args)
	if err != nil {
		return err
	}
	remote := len(f.hosts) > 0
	if f.resume != "" && !remote {
		f.engine.CacheDir = f.resume // a local state directory is a warm cache
	}
	env, err := openEnv(f.engine, remote, "coordinator", f.spansDir)
	if err != nil {
		return err
	}
	if env.eng != nil {
		defer env.eng.Drain(context.Background())
	}
	// SIGINT/SIGTERM cancel pending cells instead of killing the
	// process: the sweep degrades, the cache keeps what finished, and
	// -resume picks up the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if env.tracer != nil {
		ctx = telemetry.WithTracer(ctx, env.tracer)
	}
	f.spec.Config.Context, f.spec.Config.Engine = ctx, env.eng
	if f.cpuprofile != "" {
		pf, err := os.Create(f.cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	m, err := f.run(env)
	if err != nil {
		return err
	}
	return f.report(env, m)
}

// parseSweepFlags reads and validates the sweep command line; nothing
// is opened or created yet.
func parseSweepFlags(args []string) (*sweepFlags, error) {
	f := &sweepFlags{}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fxusFlag := fs.String("fxus", "2,3,4", "comma-separated fixed-point unit counts")
	btacFlag := fs.String("btac", "off,8", "comma-separated BTAC entry counts ('off' = none)")
	predictorsFlag := fs.String("predictors", "", "semicolon-separated direction-predictor specs, e.g. 'tournament;tage:tables=4,hist=2..64' (empty = the POWER5-like default; see `bioperf5 predictors`)")
	variantsFlag := fs.String("variants", "original,combination", "comma-separated predication variants")
	appsFlag := fs.String("apps", "all", "comma-separated applications, or 'all'")
	workersFlag := fs.String("workers", "", "local worker pool size (default GOMAXPROCS), or a comma-separated list of remote `bioperf5 serve` URLs to run the sweep distributed")
	fs.StringVar(&f.engine.CacheDir, "cache-dir", "", "content-addressed on-disk result cache directory")
	fs.IntVar(&f.engine.Retries, "retries", 2, "per-cell retry budget for transient failures (with remote workers: the per-dispatch HTTP retry budget)")
	fs.DurationVar(&f.engine.CellTimeout, "cell-timeout", 0, "per-cell simulation deadline, e.g. 30s (0 = none)")
	fs.StringVar(&f.resume, "resume", "", "sweep state directory: a result cache plus manifest.json, the same for a local and a -workers sweep; re-running against it resumes only unfinished cells")
	fs.BoolVar(&f.grid, "grid", false, "print every grid point, not just the best per application")
	fs.BoolVar(&f.jsonOut, "json", false, "emit the JSON manifest instead of the summary table")
	fs.StringVar(&f.spansDir, "spans", "", "record a span per lifecycle stage and write spans.jsonl + trace.json (Perfetto-loadable) under DIR")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the sweep to FILE")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a pprof heap profile (taken after the sweep) to FILE")
	var err error
	if f.spec.Config, _, err = parseConfig(fs, args); err != nil {
		return nil, err
	}
	if f.engine.Retries < 0 {
		return nil, fmt.Errorf("-retries: must be >= 0, got %d", f.engine.Retries)
	}
	if f.engine.CellTimeout < 0 {
		return nil, fmt.Errorf("-cell-timeout: must be >= 0, got %v", f.engine.CellTimeout)
	}
	if f.engine.Workers, f.hosts, err = parseWorkersFlag(*workersFlag); err != nil {
		return nil, err
	}
	if len(f.hosts) > 0 && f.engine.CacheDir != "" {
		return nil, fmt.Errorf("sweep: -cache-dir is local-engine state; with remote -workers run `serve -cache-dir` on a hub and point the workers at it with -cache-upstream")
	}
	if f.resume != "" && f.engine.CacheDir != "" {
		return nil, fmt.Errorf("-resume and -cache-dir are mutually exclusive: -resume DIR already keeps the result cache (plus manifest.json) under DIR")
	}
	if f.spec.FXUs, err = parseIntList("fxus", *fxusFlag, false); err != nil {
		return nil, err
	}
	if f.spec.BTACEntries, err = parseIntList("btac", *btacFlag, true); err != nil {
		return nil, err
	}
	if f.spec.Predictors, err = parsePredictorsFlag(*predictorsFlag); err != nil {
		return nil, err
	}
	for _, name := range strings.Split(*variantsFlag, ",") {
		v, err := parseVariant(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		f.spec.Variants = append(f.spec.Variants, v)
	}
	if *appsFlag != "all" {
		for _, a := range strings.Split(*appsFlag, ",") {
			f.spec.Apps = append(f.spec.Apps, strings.TrimSpace(a))
		}
	}
	return f, nil
}

// run evaluates the grid: harness.RunSweep on the local engine, or
// cluster.Run — the same RunSweep over a fleet — across the remote
// workers.  Either way -resume DIR is a result cache: the local engine
// reads and writes it as its -cache-dir, the coordinator as its
// StateDir.
func (f *sweepFlags) run(env *execEnv) (*harness.SweepManifest, error) {
	if len(f.hosts) == 0 {
		return harness.RunSweep(f.spec)
	}
	opts := cluster.Options{Workers: f.hosts, Spec: f.spec, Retries: f.engine.Retries,
		StateDir: f.resume, Registry: env.reg}
	if env.chaos != nil {
		opts.HTTP = &http.Client{Transport: env.chaos}
	}
	return cluster.Run(opts)
}

// report writes everything a finished sweep leaves behind — the resume
// manifest, the heap profile, the span files — then prints the manifest
// or the tables and summary lines.  A degraded manifest is a nonzero
// exit.
func (f *sweepFlags) report(env *execEnv, m *harness.SweepManifest) error {
	if f.resume != "" {
		_, msp := telemetry.StartSpan(f.spec.Config.Context, telemetry.StageManifest)
		werr := m.WriteJSONFile(filepath.Join(f.resume, "manifest.json"))
		msp.End()
		if werr != nil {
			return fmt.Errorf("write manifest: %w", werr)
		}
	}
	if f.memprofile != "" {
		runtime.GC() // so the profile reflects live objects rather than garbage
		if err := cas.WriteFileAtomic(f.memprofile, pprof.WriteHeapProfile); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	if err := env.flushSpans(); err != nil {
		return err
	}
	if f.jsonOut {
		if err := m.WriteJSON(os.Stdout); err != nil {
			return err
		}
		return m.ReportDegraded(os.Stderr)
	}
	if f.grid {
		fmt.Println(m.Grid().Render())
	}
	fmt.Println(m.Summary().Render())
	if tbl := m.ProfileTable(); tbl != nil {
		fmt.Println(tbl.Render())
	}
	m.WriteClosing(os.Stdout)
	return m.ReportDegraded(os.Stderr)
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
// The sweep plan canonicalises them (a typo fails there, listing the
// registered kinds).
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
		if part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-predictors: no specs in %q", s)
	}
	return out, nil
}
