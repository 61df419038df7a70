package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioperf5/internal/cas"
	"bioperf5/internal/fault"
	"bioperf5/internal/fsck"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
)

func TestParseVariant(t *testing.T) {
	for v := kernels.Branchy; v < kernels.NumVariants; v++ {
		got, err := parseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("parseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := parseVariant("turbo"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestParseConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg, rest, err := parseConfig(fs, []string{"-scale", "3", "-seeds", "4, 5,6"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 3 {
		t.Errorf("scale = %d", cfg.Scale)
	}
	if len(cfg.Seeds) != 3 || cfg.Seeds[0] != 4 || cfg.Seeds[2] != 6 {
		t.Errorf("seeds = %v", cfg.Seeds)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %v", rest)
	}

	bad := []struct {
		seeds, wantIn string
	}{
		{"x", `bad seed "x"`},
		{"1,-2", `bad seed "-2"`},
		{"3,4,3", `bad seed "3"`},
	}
	for _, tc := range bad {
		fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
		_, _, err := parseConfig(fs2, []string{"-seeds", tc.seeds})
		if err == nil {
			t.Errorf("seeds %q accepted", tc.seeds)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("seeds %q: error %q does not name the offending value %q",
				tc.seeds, err, tc.wantIn)
		}
	}
}

func TestParseVariantAliases(t *testing.T) {
	for alias, want := range map[string]kernels.Variant{
		"base": kernels.Branchy, "Baseline": kernels.Branchy,
		"isel": kernels.HandISel, "combo": kernels.Combination,
	} {
		got, err := parseVariant(alias)
		if err != nil || got != want {
			t.Errorf("parseVariant(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
}

func TestCommandsSmoke(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := cmdVariants(); err != nil {
		t.Errorf("variants: %v", err)
	}
	if err := cmdDisasm([]string{"Clustalw", "hand max"}); err != nil {
		t.Errorf("disasm: %v", err)
	}
	if err := cmdDisasm([]string{"Clustalw"}); err == nil {
		t.Error("disasm without variant accepted")
	}
	if err := cmdRun(nil); err == nil {
		t.Error("run without id accepted")
	}
	if err := cmdRun([]string{"nope"}); err == nil {
		t.Error("run with unknown id accepted")
	}
	if err := cmdProfile([]string{"Fasta"}); err != nil {
		t.Errorf("profile: %v", err)
	}
	if err := cmdProfile(nil); err == nil {
		t.Error("profile without app accepted")
	}
	if err := cmdTrace([]string{"Hmmer"}); err == nil {
		t.Error("trace without variant accepted")
	}
	if err := cmdTrace([]string{"Nope", "base"}); err == nil {
		t.Error("trace with unknown app accepted")
	}
	if err := cmdStats([]string{"Nope"}); err == nil {
		t.Error("stats with unknown app accepted")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("fxus", "2, 3,4", false)
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("parseIntList = %v, %v", got, err)
	}
	got, err = parseIntList("btac", "off,8", true)
	if err != nil || len(got) != 2 || got[0] != 0 || got[1] != 8 {
		t.Errorf("parseIntList with off = %v, %v", got, err)
	}
	if _, err := parseIntList("fxus", "off,2", false); err == nil {
		t.Error("'off' accepted where not allowed")
	}
	if _, err := parseIntList("fxus", "2,x", false); err == nil {
		t.Error("non-numeric value accepted")
	}
}

// TestCmdSweepSmoke runs a tiny sweep through the CLI path end to end.
func TestCmdSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"-fxus", "2", "-btac", "off", "-variants", "original",
		"-apps", "Fasta", "-cache-dir", t.TempDir()}
	if err := cmdSweep(args); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := cmdSweep([]string{"-fxus", "nope"}); err == nil {
		t.Error("bad -fxus accepted")
	}
	if err := cmdSweep([]string{"-apps", "NoSuchApp"}); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestStatsFor exercises the registry-backed stats path: the simulator
// counters, stall buckets and the profiler breakdown must land in one
// snapshot.
func TestStatsFor(t *testing.T) {
	rep, err := statsFor("Fasta", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Snapshot
	cycles, ok := snap.Counters["cpu.Cycles"]
	if !ok || cycles == 0 {
		t.Errorf("snapshot missing cpu.Cycles: %v", snap.Counters)
	}
	var stallSum uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "cpu.stall.") {
			stallSum += v
		}
	}
	if stallSum != cycles {
		t.Errorf("stall buckets sum to %d, cycles %d", stallSum, cycles)
	}
	if _, ok := snap.Gauges["cpu.rate.ipc"]; !ok {
		t.Error("snapshot missing cpu.rate.ipc")
	}
	if len(snap.Labeled["profile.calls"]) == 0 {
		t.Error("snapshot missing profiler breakdown (profile.calls)")
	}
	// The scheduler publishes into the same registry, so the fault and
	// retry counter family is part of the stats surface.
	if got := snap.Counters["sched.jobs.submitted"]; got != 1 {
		t.Errorf("sched.jobs.submitted = %d, want 1", got)
	}
	for _, name := range []string{"sched.jobs.retries", "sched.faults.injected"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
}

func TestCmdSweepFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"negative retries", []string{"-retries", "-1"}},
		{"negative cell timeout", []string{"-cell-timeout", "-1s"}},
		{"resume and cache-dir conflict", []string{"-resume", "a", "-cache-dir", "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := cmdSweep(tc.args); err == nil {
				t.Errorf("%v accepted", tc.args)
			}
		})
	}
}

func TestCmdSweepRejectsBadFaultSpec(t *testing.T) {
	t.Setenv(fault.EnvVar, "panic=2")
	if err := cmdSweep([]string{"-apps", "Fasta"}); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
	t.Setenv(fault.EnvVar, "bogus=1")
	if err := cmdSweep([]string{"-apps", "Fasta"}); err == nil {
		t.Error("unknown fault key accepted")
	}
}

// TestCmdSweepResumeRoundTrip runs the same sweep twice against one
// -resume directory: the second run must leave the manifest in place and
// do no simulation work, every cell a hit in the directory's cache.
func TestCmdSweepResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	args := []string{"-fxus", "2", "-btac", "off", "-variants", "original",
		"-apps", "Fasta", "-resume", dir}
	for run := 0; run < 2; run++ {
		if err := cmdSweep(args); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a local sweep wrote a journal: %v", err)
	}
	// The second run's manifest is the one on disk: all cells resumed.
	m := readManifest(t, dir)
	if m.Scheduler.Computed != 0 || m.Scheduler.DiskHits == 0 {
		t.Errorf("resumed run scheduler stats = %+v", m.Scheduler)
	}
	if m.Degraded != 0 {
		t.Errorf("degraded = %d", m.Degraded)
	}
}

// TestCmdSweepResumesParentStateDir: a -resume directory the previous
// binary left behind also holds its journal.jsonl, here with a torn last
// line.  Resuming from it must simulate nothing, reproduce the manifest
// and leave the journal alone for fsck, which still reports the tear.
func TestCmdSweepResumesParentStateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	args := []string{"-fxus", "2,3", "-btac", "off", "-variants", "original",
		"-apps", "Fasta", "-resume", dir}
	if err := cmdSweep(args); err != nil {
		t.Fatal(err)
	}
	want := canonManifest(t, readManifest(t, dir))

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var journal []byte
	for _, e := range entries {
		if hash := strings.TrimSuffix(filepath.Base(e), ".json"); cas.ValidKey(hash) {
			journal = append(journal, `{"hash":"`+hash+`","status":"ok"}`+"\n"...)
		}
	}
	if len(journal) == 0 {
		t.Fatal("the first run left no result entries")
	}
	journal = append(journal, `{"hash":"torn-mid-wri`...)
	jpath := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jpath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdSweep(args); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.Scheduler.Computed != 0 {
		t.Errorf("resume over a parent state directory computed %d cells", m.Scheduler.Computed)
	}
	if got := canonManifest(t, m); got != want {
		t.Errorf("resumed manifest differs:\n--- first ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if b, err := os.ReadFile(jpath); err != nil || !bytes.Equal(b, journal) {
		t.Errorf("the journal was touched (err %v)", err)
	}
	rep, err := fsck.Run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	torn := false
	for _, f := range rep.Findings {
		torn = torn || f.Kind == fsck.KindJournalTornTail
	}
	if !torn {
		t.Errorf("fsck missed the torn journal tail: %+v", rep.Findings)
	}
}

// readManifest parses the manifest.json a -resume run wrote under dir.
func readManifest(t *testing.T, dir string) *harness.SweepManifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m harness.SweepManifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	return &m
}

// canonManifest renders a manifest without the fields that vary run to
// run: wall time, scheduler counters and the stage profile.
func canonManifest(t *testing.T, m *harness.SweepManifest) string {
	t.Helper()
	clone := *m
	clone.ElapsedMS, clone.Scheduler, clone.Profile = 0, sched.Stats{}, nil
	b, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCmdSweepSpansAndProfiles drives the observability flags end to
// end: -spans must leave a loadable spans.jsonl + a Chrome trace-event
// trace.json behind, -cpuprofile/-memprofile must write pprof files,
// and `bioperf5 spans` must aggregate the recorded log.
func TestCmdSweepSpansAndProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	spansDir := filepath.Join(dir, "spans")
	args := []string{"-fxus", "2", "-btac", "off", "-variants", "original",
		"-apps", "Fasta", "-cache-dir", filepath.Join(dir, "cache"),
		"-spans", spansDir,
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof")}
	if err := cmdSweep(args); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %d)", name, err, fi.Size())
		}
	}

	// The span log loads, covers the lifecycle taxonomy, and nests
	// under a single sweep root.
	f, err := os.Open(filepath.Join(spansDir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpansJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	roots := 0
	for _, d := range spans {
		names[d.Name]++
		if d.Parent == 0 {
			roots++
		}
	}
	for _, want := range []string{telemetry.StageSweep, telemetry.StageQueue,
		telemetry.StageExecute, telemetry.StageCapture} {
		if names[want] == 0 {
			t.Errorf("no %q span in the exported log (have %v)", want, names)
		}
	}
	if names[telemetry.StageSweep] != 1 || roots != 1 {
		t.Errorf("want exactly one sweep root span, got %d (%d roots)",
			names[telemetry.StageSweep], roots)
	}

	// The Chrome trace-event export is valid JSON with one event per
	// span — the Perfetto-loadable artifact.
	b, err := os.ReadFile(filepath.Join(spansDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace.json not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("trace.json has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}

	// The spans subcommand aggregates the log (and re-exports Chrome).
	chrome2 := filepath.Join(dir, "trace2.json")
	if err := cmdSpans([]string{"-chrome", chrome2, filepath.Join(spansDir, "spans.jsonl")}); err != nil {
		t.Fatalf("spans: %v", err)
	}
	if fi, err := os.Stat(chrome2); err != nil || fi.Size() == 0 {
		t.Errorf("spans -chrome wrote nothing: %v", err)
	}
	if err := cmdSpans([]string{"-json", filepath.Join(spansDir, "spans.jsonl")}); err != nil {
		t.Fatalf("spans -json: %v", err)
	}
}

// TestCmdSpansValidation covers the failure modes of the spans report.
func TestCmdSpansValidation(t *testing.T) {
	if err := cmdSpans(nil); err == nil {
		t.Error("spans without a file accepted")
	}
	if err := cmdSpans([]string{filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Error("spans with a missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSpans([]string{empty}); err == nil {
		t.Error("empty span log accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"id\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSpans([]string{bad}); err == nil {
		t.Error("nameless span accepted")
	}
}

// TestAggregateSpans pins the aggregation: totals, means, maxima, and
// the descending sort.
func TestAggregateSpans(t *testing.T) {
	spans := []telemetry.SpanData{
		{ID: 1, Name: "a", DurNS: 100},
		{ID: 2, Name: "a", DurNS: 300},
		{ID: 3, Name: "b", DurNS: 1000},
	}
	got := aggregateSpans(spans)
	if len(got) != 2 || got[0].Stage != "b" || got[1].Stage != "a" {
		t.Fatalf("order: %+v", got)
	}
	a := got[1]
	if a.Count != 2 || a.TotalNS != 400 || a.MeanNS != 200 || a.MaxNS != 300 {
		t.Errorf("a stats: %+v", a)
	}
}
