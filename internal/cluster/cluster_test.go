package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bioperf5/internal/cas"
	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/telemetry"
)

// testSpec is a small but non-trivial sweep: 8 grid points plus one
// baseline, where the baseline coincides with the branchy/2-FXU/no-BTAC
// point — exercising the cell dedup the local engine gets from
// coalescing.
func testSpec(eng *sched.Engine) harness.SweepSpec {
	return harness.SweepSpec{
		FXUs:        []int{2, 3},
		BTACEntries: []int{0, 8},
		Apps:        []string{"Blast"},
		Config: harness.Config{
			Scale: 1, Seeds: []int64{1, 2}, Engine: eng,
			Context: context.Background(),
		},
	}
}

// singleNode runs the reference sweep locally.
func singleNode(t *testing.T) *harness.SweepManifest {
	t.Helper()
	eng := sched.New(sched.Options{Workers: 2})
	defer eng.Close()
	m, err := harness.RunSweep(testSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// canonManifest strips the operational fields — wall time, scheduler
// and cluster counters, the stage profile — leaving exactly the bytes
// that must match between a local and a distributed run.
func canonManifest(t *testing.T, m *harness.SweepManifest) string {
	t.Helper()
	clone := *m
	clone.ElapsedMS = 0
	clone.Scheduler = sched.Stats{}
	clone.Cluster = nil
	clone.Profile = nil
	b, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newWorker spins up one real bioperf5 serve worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	eng := sched.New(sched.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(server.New(server.Options{Engine: eng}))
	t.Cleanup(ts.Close)
	return ts
}

// registrySaysWhatTheManifestSays checks publish(): every cluster.*
// counter equals the manifest field it mirrors.
func registrySaysWhatTheManifestSays(t *testing.T, reg *telemetry.Registry, cs *harness.ClusterStats) {
	t.Helper()
	for name, want := range map[string]uint64{
		"cluster.workers_lost":        cs.WorkersLost,
		"cluster.dispatched":          cs.Dispatched,
		"cluster.completed":           cs.Completed,
		"cluster.failed":              cs.FailedCells,
		"cluster.redispatched":        cs.Redispatched,
		"cluster.duplicates":          cs.Duplicates,
		"cluster.resumed":             cs.Resumed,
		"cluster.cache_hits":          cs.CacheHits,
		"cluster.batches":             cs.Batches,
		"cluster.http_retries":        cs.Retries,
		"cluster.breaker.opened":      cs.BreakerTrips,
		"cluster.breaker.quarantined": cs.Quarantined,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("registry %s = %d, manifest says %d", name, got, want)
		}
	}
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ref := singleNode(t)
	w1, w2 := newWorker(t), newWorker(t)
	reg := telemetry.NewRegistry()
	m, err := Run(Options{
		Workers:  []string{w1.URL, w2.URL},
		Spec:     testSpec(nil),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonManifest(t, m), canonManifest(t, ref); got != want {
		t.Errorf("distributed manifest differs from single-node:\n--- distributed\n%s\n--- single-node\n%s", got, want)
	}
	cs := m.Cluster
	if cs == nil {
		t.Fatal("distributed manifest carries no cluster stats")
	}
	if cs.Workers != 2 || cs.Completed != cs.Cells || cs.FailedCells != 0 {
		t.Errorf("cluster stats: %+v", cs)
	}
	if cs.Cells >= uint64(len(m.Points)+1) {
		t.Errorf("expected the coincident baseline to dedup: %d cells for %d points", cs.Cells, len(m.Points))
	}
	registrySaysWhatTheManifestSays(t, reg, cs)
}

// recordingHandler proxies to a real worker and notes the (application,
// variant) stream of every cell it is sent, in dispatch order.
type recordingHandler struct {
	h       http.Handler
	mu      sync.Mutex
	streams []string
}

func (rh *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "cells:batch") {
		body, _ := io.ReadAll(r.Body)
		var req server.BatchRequest
		json.Unmarshal(body, &req)
		rh.mu.Lock()
		for _, c := range req.Cells {
			rh.streams = append(rh.streams, c.App+"/"+c.Variant)
		}
		rh.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rh.h.ServeHTTP(w, r)
}

// TestFleetSeesCapturesFirst: a fleet runs RunSweep's submission order,
// so the cell that captures each (application, variant) trace is
// dispatched before any stream's second cell — in plan order the whole
// original-variant grid would precede the first combination cell.
func TestFleetSeesCapturesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := sched.New(sched.Options{Workers: 2})
	t.Cleanup(eng.Close)
	rh := &recordingHandler{h: server.New(server.Options{Engine: eng})}
	w := httptest.NewServer(rh)
	t.Cleanup(w.Close)
	if _, err := Run(Options{Workers: []string{w.URL}, Spec: testSpec(nil), batchSize: 1}); err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for _, s := range rh.streams {
		distinct[s] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("test spec should have two streams, dispatched %v", rh.streams)
	}
	seen := make(map[string]bool)
	for i, s := range rh.streams {
		if seen[s] && len(seen) < len(distinct) {
			t.Fatalf("dispatch %d is a second %s cell before every stream's first: %v", i, s, rh.streams)
		}
		seen[s] = true
	}
}

// TestPickTakesQueueOrder pins the batch selection: undispatched cells
// first, else in-flight cells dispatched once — both in queue order, so
// which stragglers get hedged does not differ from run to run.
func TestPickTakesQueueOrder(t *testing.T) {
	done := &unit{key: "done", done: true, dispatches: 1}
	fresh1, fresh2 := &unit{key: "fresh1"}, &unit{key: "fresh2"}
	requeued := &unit{key: "requeued", dispatches: 2} // both dispatches failed: first in line again
	flying1 := &unit{key: "flying1", inflight: 1, dispatches: 1}
	flying2 := &unit{key: "flying2", inflight: 1, dispatches: 1}
	hedged := &unit{key: "hedged", inflight: 2, dispatches: 2}
	halfBack := &unit{key: "halfBack", inflight: 1, dispatches: 2} // hedged, one dispatch failed
	for _, tc := range []struct {
		name  string
		queue []*unit
		n     int
		want  []*unit
		hedge bool
	}{
		{"empty queue", nil, 4, nil, false},
		{"undispatched in queue order, n smaller than eligible",
			[]*unit{done, flying1, fresh1, requeued, fresh2}, 2, []*unit{fresh1, requeued}, false},
		{"n larger than eligible takes them all and does not top up with hedges",
			[]*unit{fresh1, flying1, done, fresh2}, 4, []*unit{fresh1, fresh2}, false},
		{"nothing undispatched: hedge in queue order, n smaller than eligible",
			[]*unit{done, hedged, flying2, halfBack, flying1}, 1, []*unit{flying2}, true},
		{"hedge skips done and hedged-out cells, n larger than eligible",
			[]*unit{flying1, done, hedged, halfBack, flying2}, 4, []*unit{flying1, flying2}, true},
		{"everything done or hedged out", []*unit{done, hedged, halfBack}, 4, nil, false},
	} {
		got, hedge := pick(tc.queue, tc.n, 1, nil, nil)
		if len(got) != len(tc.want) || hedge != tc.hedge {
			t.Errorf("%s: picked %d cells (hedge=%v), want %d (hedge=%v)", tc.name, len(got), hedge, len(tc.want), tc.hedge)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: cell %d is %s, want %s", tc.name, i, got[i].key, tc.want[i].key)
			}
		}
	}
}

// TestPickKeepsStreamsOnTheirHolders pins the stream-aware order: cells
// of streams nobody holds, then this worker's streams, then a steal of
// the other workers' stream with the most cells left, each at most a
// live worker's share of the cells left, then a hedge that prefers this
// worker's streams.
func TestPickKeepsStreamsOnTheirHolders(t *testing.T) {
	a, b, c := harness.Stream{App: "A"}, harness.Stream{App: "B"}, harness.Stream{App: "C"}
	cell := func(key string, s harness.Stream) *unit { return &unit{key: key, stream: s} }
	flying := func(key string, s harness.Stream) *unit {
		return &unit{key: key, stream: s, inflight: 1, dispatches: 1}
	}
	a1, a2, b1, b2, c1, c2, c3 := cell("a1", a), cell("a2", a), cell("b1", b), cell("b2", b),
		cell("c1", c), cell("c2", c), cell("c3", c)
	aDone := &unit{key: "aDone", stream: a, done: true}
	aFly, bFly := flying("aFly", a), flying("bFly", b)
	set := func(ss ...harness.Stream) map[harness.Stream]bool {
		m := make(map[harness.Stream]bool)
		for _, s := range ss {
			m[s] = true
		}
		return m
	}
	for _, tc := range []struct {
		name         string
		queue        []*unit
		n, live      int
		mine, others map[harness.Stream]bool
		want         []*unit
		hedge        bool
	}{
		{"1: unheld streams in queue order, before this worker's own",
			[]*unit{a1, b1, c1, b2}, 4, 1, set(a), set(c), []*unit{b1, b2}, false},
		{"1: a stream only a dead worker held is unheld",
			[]*unit{a1, c1, c2}, 1, 1, set(a), nil, []*unit{c1}, false},
		{"2: this worker's streams in queue order, never the others'",
			[]*unit{c1, a1, b1, a2, b2}, 4, 1, set(a, b), set(c), []*unit{a1, b1, a2, b2}, false},
		{"2: n caps the batch",
			[]*unit{a1, a2}, 1, 1, set(a), set(b), []*unit{a1}, false},
		{"3: steal the held stream with the most cells left",
			[]*unit{aDone, b1, c1, c2, b2, c3}, 2, 1, set(a), set(b, c), []*unit{c1, c2}, false},
		{"3: a steal takes one stream only, on a tie the first to reach the most",
			[]*unit{aFly, b1, c1, b2, c2}, 4, 1, set(a), set(b, c), []*unit{b1, b2}, false},
		{"3: the one-stream steal",
			[]*unit{b1, b2}, 4, 1, nil, set(b), []*unit{b1, b2}, false},
		{"1–3: at most a live worker's share of the cells left",
			[]*unit{c1, c2, c3, a1}, 4, 2, set(a), set(b), []*unit{c1, c2}, false},
		{"1–3: the share rounds up",
			[]*unit{c1, c2, c3}, 4, 2, nil, nil, []*unit{c1, c2}, false},
		{"4: a hedge is not held to the share",
			[]*unit{aFly, bFly}, 4, 2, set(a), set(b), []*unit{aFly, bFly}, true},
		{"4: hedge this worker's streams first",
			[]*unit{bFly, aDone, aFly}, 2, 1, set(a), set(b), []*unit{aFly, bFly}, true},
		{"4: hedge another's stream when this worker has none in flight",
			[]*unit{bFly, aDone}, 2, 1, set(a), set(b), []*unit{bFly}, true},
	} {
		got, hedge := pick(tc.queue, tc.n, tc.live, tc.mine, tc.others)
		keys := func(us []*unit) (ks []string) {
			for _, u := range us {
				ks = append(ks, u.key)
			}
			return ks
		}
		if !slices.Equal(keys(got), keys(tc.want)) || hedge != tc.hedge {
			t.Errorf("%s: picked %v (hedge=%v), want %v (hedge=%v)", tc.name, keys(got), hedge, keys(tc.want), tc.hedge)
		}
	}
}

// TestNextBatchCountsSteals: taking a stream another live worker holds
// is a steal; a dead worker's streams are nobody's, so taking them is
// not, and the taker holds every stream it is sent.
func TestNextBatchCountsSteals(t *testing.T) {
	s := harness.Stream{App: "A"}
	for _, dead := range []bool{false, true} {
		me := &workerState{name: "me", streams: map[harness.Stream]bool{}}
		holder := &workerState{name: "holder", dead: dead, streams: map[harness.Stream]bool{s: true}}
		c := &coordinator{o: Options{batchSize: 4}, running: context.Background(), open: true,
			workers: []*workerState{me, holder}, live: map[bool]int{false: 2, true: 1}[dead],
			queue: []*unit{{key: "1", stream: s}, {key: "2", stream: s}}}
		c.cond = sync.NewCond(&c.mu)
		// Two cells are left, so a live worker's share is 2/live.
		if got := len(c.nextBatch(me)); got != 2/c.live {
			t.Fatalf("holder dead=%v: picked %d cells, want %d", dead, got, 2/c.live)
		}
		if want := map[bool]uint64{false: 1, true: 0}[dead]; c.stats.Stolen != want || !me.streams[s] {
			t.Errorf("holder dead=%v: Stolen = %d (want %d), taker holds the stream: %v", dead, c.stats.Stolen, want, me.streams[s])
		}
	}
}

// TestFleetCapturesEachStreamOncePerHolder: on a fault-free two-worker
// sweep a stream's traces are captured by the worker that first takes
// it and again only by a worker that takes it over, so the fleet
// captures exactly seeds × (streams + Stolen) traces.
func TestFleetCapturesEachStreamOncePerHolder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var urls []string
	var engines []*sched.Engine
	for i := 0; i < 2; i++ {
		eng := sched.New(sched.Options{Workers: 2})
		t.Cleanup(eng.Close)
		ts := httptest.NewServer(server.New(server.Options{Engine: eng}))
		t.Cleanup(ts.Close)
		urls, engines = append(urls, ts.URL), append(engines, eng)
	}
	spec := testSpec(nil)
	spec.Apps = []string{"Blast", "Fasta"}
	m, err := Run(Options{Workers: urls, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Cluster
	if cs.FailedCells != 0 || cs.WorkersLost != 0 || cs.Retries != 0 {
		t.Fatalf("not a clean sweep: %+v", cs)
	}
	var captures uint64
	for _, eng := range engines {
		captures += eng.TraceStore().Stats().Captures
	}
	streams := uint64(len(spec.Apps) * 2) // the default grid's two variants
	if want := uint64(len(spec.Config.Seeds)) * (streams + cs.Stolen); captures != want {
		t.Errorf("fleet captured %d traces, want seeds × (streams + stolen) = %d × (%d + %d) = %d",
			captures, len(spec.Config.Seeds), streams, cs.Stolen, want)
	}
}

// killingHandler proxies to a real worker but aborts every batch after
// the first — the mid-sweep SIGKILL stand-in.
type killingHandler struct {
	h         http.Handler
	mu        sync.Mutex
	batches   int
	killAfter int
}

func (k *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "cells:batch") {
		k.mu.Lock()
		k.batches++
		n := k.batches
		k.mu.Unlock()
		if n > k.killAfter {
			panic(http.ErrAbortHandler)
		}
	}
	k.h.ServeHTTP(w, r)
}

func TestWorkerDeathMidSweepIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ref := singleNode(t)
	healthy := newWorker(t)
	eng := sched.New(sched.Options{Workers: 2})
	t.Cleanup(eng.Close)
	dying := httptest.NewServer(&killingHandler{
		h:         server.New(server.Options{Engine: eng}),
		killAfter: 1,
	})
	t.Cleanup(dying.Close)
	m, err := Run(Options{
		Workers:   []string{healthy.URL, dying.URL},
		Spec:      testSpec(nil),
		batchSize: 2,
		Retries:   -1, // fail a dead worker fast instead of backing off
		// Quarantine the dying worker on its first failed dispatch.  A
		// second-trip quarantine would race the survivor: with warm
		// trace caches the survivor drains the requeued cells before the
		// dying worker's breaker half-opens for another attempt.
		breakerThreshold: 1,
		breakerCooldown:  time.Millisecond,
		quarantineTrips:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonManifest(t, m), canonManifest(t, ref); got != want {
		t.Errorf("post-death manifest differs from single-node:\n--- distributed\n%s\n--- single-node\n%s", got, want)
	}
	cs := m.Cluster
	if cs.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1 (stats: %+v)", cs.WorkersLost, cs)
	}
	if cs.FailedCells != 0 || cs.Completed != cs.Cells {
		t.Errorf("survivor should finish every cell: %+v", cs)
	}
}

func TestAllWorkersDeadDegradesPerCell(t *testing.T) {
	eng := sched.New(sched.Options{Workers: 1})
	t.Cleanup(eng.Close)
	dying := httptest.NewServer(&killingHandler{
		h: server.New(server.Options{Engine: eng}), // killAfter 0: every batch aborts
	})
	t.Cleanup(dying.Close)
	m, err := Run(Options{
		Workers: []string{dying.URL},
		Spec:    testSpec(nil),
		Retries: -1,
		// Flap straight into quarantine: every batch aborts, so the
		// breaker trips until the fleet is gone.
		breakerCooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err) // degraded, not fatal: the manifest must still ship
	}
	if m.Degraded != len(m.Points) {
		t.Fatalf("Degraded = %d, want all %d points", m.Degraded, len(m.Points))
	}
	for _, p := range m.Points {
		if p.Status == harness.StatusOK {
			t.Fatalf("point %s unexpectedly ok", p.Key)
		}
		if p.Error == "" {
			t.Fatalf("degraded point %s carries no error", p.Key)
		}
	}
	// The baseline failed with it, so points degrade to skipped with
	// the no-replacement reason in the baseline error.
	if !strings.Contains(m.Points[0].Error, "no live replacement") {
		t.Errorf("error should name the cause, got %q", m.Points[0].Error)
	}
	if m.Cluster.WorkersLost != 1 || m.Cluster.Completed != 0 {
		t.Errorf("cluster stats: %+v", m.Cluster)
	}
}

func TestCoordinatorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	w := newWorker(t)
	first, err := Run(Options{Workers: []string{w.URL}, Spec: testSpec(nil), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cluster.Completed == 0 {
		t.Fatal("first run completed nothing")
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a coordinator wrote a journal into its state directory (stat: %v)", err)
	}

	// Second run: same state directory, but a worker that can only
	// handshake — every batch would abort.  If resume works, none is sent.
	second, err := Run(Options{Workers: []string{brokenWorker(t).URL}, Spec: testSpec(nil), StateDir: dir, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonManifest(t, second), canonManifest(t, first); got != want {
		t.Errorf("resumed manifest differs:\n--- resumed\n%s\n--- first\n%s", got, want)
	}
	cs := second.Cluster
	if cs.Resumed != cs.Cells || cs.Batches != 0 || cs.Dispatched != 0 {
		t.Errorf("resume should serve every cell from the state directory: %+v", cs)
	}
}

// brokenWorker is a worker that passes the handshake and aborts every
// batch: a run against it dispatches nothing that can succeed.
func brokenWorker(t *testing.T) *httptest.Server {
	t.Helper()
	eng := sched.New(sched.Options{Workers: 1})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(&killingHandler{h: server.New(server.Options{Engine: eng})})
	t.Cleanup(ts.Close)
	return ts
}

// stateDirWith copies the recorded parent journal, as transform leaves
// it, into a fresh state directory and returns the directory and the
// bytes it wrote.
func stateDirWith(t *testing.T, transform func([]byte) []byte) (string, []byte) {
	t.Helper()
	recorded, err := os.ReadFile("testdata/parent_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b := transform(recorded)
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, b
}

// TestCoordinatorResumesParentJournal: testdata/parent_journal.jsonl is
// the journal the coordinator of the commit before the one-queue rewrite
// (ff80506) wrote for testSpec, and parent_manifest.json that run's
// canonManifest.  The format is the disk contract of -resume: every cell
// must come back from the file, none may be dispatched, and the manifest
// must match the recording run's byte for byte.  (A model change moves
// the cell keys; re-record both files with a parent coordinator.)
func TestCoordinatorResumesParentJournal(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := stateDirWith(t, func(b []byte) []byte { return b })
	m, err := Run(Options{Workers: []string{brokenWorker(t).URL}, Spec: testSpec(nil), StateDir: dir, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cs := m.Cluster; cs.Resumed != cs.Cells || cs.Batches != 0 {
		t.Errorf("a parent-written journal should answer every cell: %+v", cs)
	}
	if got := canonManifest(t, m); got != string(want) {
		t.Errorf("manifest resumed from the parent's journal differs from the recording run's:\n%s", got)
	}
}

// TestCoordinatorDispatchesWhatAParentJournalCannotAnswer: a failed
// record and a torn last line answer nothing, so exactly those two
// cells are dispatched, the other six resume, the manifest is the
// recording run's, and the parent's file is left byte for byte as it
// was.
func TestCoordinatorDispatchesWhatAParentJournalCannotAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile("testdata/parent_manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	dir, wrote := stateDirWith(t, func(b []byte) []byte {
		lines := strings.SplitAfter(string(b), "\n")
		lines[2] = strings.Replace(lines[2], `"status":"ok"`, `"status":"failed"`, 1)
		last := len(lines) - 2 // the final element is the empty string after the last '\n'
		lines[last] = lines[last][:len(lines[last])/2]
		return []byte(strings.Join(lines[:last+1], ""))
	})
	m, err := Run(Options{Workers: []string{newWorker(t).URL}, Spec: testSpec(nil), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cs := m.Cluster; cs.Resumed != cs.Cells-2 || cs.Completed != 2 || cs.Dispatched != 2 {
		t.Errorf("want the failed and the torn cell dispatched, the rest resumed: %+v", cs)
	}
	if got := canonManifest(t, m); got != string(want) {
		t.Errorf("manifest differs from the recording run's:\n%s", got)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil || !bytes.Equal(got, wrote) {
		t.Errorf("the parent's journal changed (err %v)", err)
	}
}

// TestFleetAndLocalStateDirsAreOneFormat: a local sweep's cache
// directory resumes a fleet, and a fleet's state directory resumes a
// local sweep, each without computing anything.
func TestFleetAndLocalStateDirsAreOneFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	local := t.TempDir()
	eng := sched.New(sched.Options{Workers: 2, CacheDir: local})
	ref, err := harness.RunSweep(testSpec(eng))
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(Options{Workers: []string{brokenWorker(t).URL}, Spec: testSpec(nil), StateDir: local, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cs := m.Cluster; cs.Resumed != cs.Cells || cs.Batches != 0 {
		t.Errorf("a local cache directory should answer every fleet cell: %+v", cs)
	}
	if got, want := canonManifest(t, m), canonManifest(t, ref); got != want {
		t.Errorf("fleet resumed from a local directory differs:\n%s", got)
	}

	fleet := t.TempDir()
	if _, err := Run(Options{Workers: []string{newWorker(t).URL}, Spec: testSpec(nil), StateDir: fleet}); err != nil {
		t.Fatal(err)
	}
	eng = sched.New(sched.Options{Workers: 2, CacheDir: fleet})
	defer eng.Close()
	lm, err := harness.RunSweep(testSpec(eng))
	if err != nil {
		t.Fatal(err)
	}
	if lm.Scheduler.Computed != 0 {
		t.Errorf("a local sweep on a fleet's state directory computed %d jobs, want 0 (%+v)",
			lm.Scheduler.Computed, lm.Scheduler)
	}
	if got, want := canonManifest(t, lm), canonManifest(t, ref); got != want {
		t.Errorf("local sweep resumed from a fleet directory differs:\n%s", got)
	}
}

// TestCoordinatorRedispatchesATornEntry: one seed entry cut in half
// makes its whole cell a miss — the wire unit is a cell — so exactly
// that cell is dispatched, and afterwards its entry verifies again.
func TestCoordinatorRedispatchesATornEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	first, err := Run(Options{Workers: []string{newWorker(t).URL}, Spec: testSpec(nil), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := harness.PlanSweep(testSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	j := plan.Points[3].Jobs()[1]
	entries := cas.NewDir(sched.EntryKind, dir, new(telemetry.Counter), new(telemetry.Counter))
	if err := entries.Tear(j.Hash()); err != nil {
		t.Fatal(err)
	}
	m, err := Run(Options{Workers: []string{newWorker(t).URL}, Spec: testSpec(nil), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cs := m.Cluster; cs.Resumed != cs.Cells-1 || cs.Dispatched != 1 || cs.Completed != 1 {
		t.Errorf("want exactly the torn cell dispatched: %+v", cs)
	}
	if got, want := canonManifest(t, m), canonManifest(t, first); got != want {
		t.Errorf("manifest after re-dispatch differs:\n%s", got)
	}
	if _, ok := sched.LoadResult(entries, j.Hash(), j.Key()); !ok {
		t.Error("the re-dispatched cell's entry does not verify")
	}
}

func TestVersionGuardRefusesSchemaSkew(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"schema": "bioperf5/v999", "version": "unknown"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	_, err := Run(Options{Workers: []string{ts.URL}, Spec: testSpec(nil)})
	if err == nil || !strings.Contains(err.Error(), "refusing to mix") {
		t.Fatalf("want a schema-refusal error, got %v", err)
	}
	if !strings.Contains(err.Error(), "bioperf5/v999") {
		t.Errorf("error should name the worker's schema: %v", err)
	}
}

func TestVersionGuardRefusesUnreachableWorker(t *testing.T) {
	_, err := Run(Options{
		Workers: []string{"127.0.0.1:1"}, // nothing listens on port 1
		Spec:    testSpec(nil),
	})
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("want a handshake error, got %v", err)
	}
}

func TestClientRetryDelay(t *testing.T) {
	cli := &Client{}
	resp := func(retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{Header: h}
	}
	if d := cli.retryDelay(0, resp("7")); d != 7*time.Second {
		t.Errorf("hinted delay = %v, want 7s", d)
	}
	if d := cli.retryDelay(0, resp("120")); d != 15*time.Second {
		t.Errorf("hint should cap at MaxRetryAfter default 15s, got %v", d)
	}
	if d := cli.retryDelay(2, nil); d != time.Second {
		t.Errorf("backoff attempt 2 = %v, want 250ms<<2 = 1s", d)
	}
	if d := cli.retryDelay(30, nil); d != 15*time.Second {
		t.Errorf("deep backoff should cap, got %v", d)
	}
	capped := &Client{MaxRetryAfter: 10 * time.Millisecond}
	if d := capped.retryDelay(0, resp("7")); d != 10*time.Millisecond {
		t.Errorf("explicit cap should win over hint, got %v", d)
	}
}

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	var mu sync.Mutex
	rejections := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells:batch", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rejections++
		first := rejections == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(server.BatchItem{Schema: harness.SchemaVersion, Index: 0, Status: "error", Error: "stub"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	var delays []time.Duration
	cli := &Client{
		Base:          ts.URL,
		MaxRetryAfter: 20 * time.Millisecond, // keep the test fast: the 30s hint is capped
		OnRetry:       func(d time.Duration) { delays = append(delays, d) },
	}
	var items []server.BatchItem
	err := cli.Batch(context.Background(), []server.CellRequest{{App: "Blast"}},
		func(it server.BatchItem) { items = append(items, it) })
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 20*time.Millisecond {
		t.Errorf("delays = %v, want one capped 20ms wait", delays)
	}
	if len(items) != 1 || items[0].Error != "stub" {
		t.Errorf("items = %+v", items)
	}
}
