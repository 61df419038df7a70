package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bioperf5/internal/fault"
	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
)

// hangInjector delays every simulation attempt by d, so tests can hold
// cells in flight long enough to exercise saturation, deadlines,
// coalescing and drain without stubbing the simulator.
type hangInjector struct{ d time.Duration }

func (h hangInjector) Decide(site fault.Site, hash string, attempt int) fault.Decision {
	if site == fault.SiteExecute {
		return fault.Decision{Kind: fault.Hang, Delay: h.d}
	}
	return fault.Decision{}
}

func newTestServer(t *testing.T, so sched.Options, o Options) (*Server, *sched.Engine) {
	t.Helper()
	eng := sched.New(so)
	t.Cleanup(eng.Close)
	o.Engine = eng
	return New(o), eng
}

func postCell(s *Server, body string, query string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/cells"+query, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// waitInflight polls until n cells are admitted (the server gauge) or
// the deadline passes.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	g := s.Registry().Gauge("server.cells.inflight")
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() < float64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight cells (at %v)", n, g.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCellHappyPath(t *testing.T) {
	s, eng := newTestServer(t, sched.Options{Workers: 2}, Options{})
	w := postCell(s, `{"app":"fasta","variant":"combo","fxus":4,"btac_entries":8,"seeds":[1]}`, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp CellResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if resp.Schema != harness.SchemaVersion {
		t.Errorf("schema = %q, want %q", resp.Schema, harness.SchemaVersion)
	}
	// The request was canonicalized: case-folded app, alias-resolved
	// variant.
	if resp.App != "Fasta" || resp.Variant != "combination" {
		t.Errorf("canonical coordinates = %q/%q", resp.App, resp.Variant)
	}
	if resp.Key == "" || len(resp.Stats.Seeds) != 1 {
		t.Errorf("incomplete response: key=%q seeds=%d", resp.Key, len(resp.Stats.Seeds))
	}
	agg := resp.Stats.Aggregate
	if agg.Counters.Cycles == 0 || agg.Rates.IPC == 0 {
		t.Errorf("empty aggregate: %+v", agg)
	}
	if st := eng.Stats(); st.Computed != 1 {
		t.Errorf("engine computed %d jobs, want 1", st.Computed)
	}
}

func TestCellValidation(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{})
	cases := []struct {
		name, body, query string
	}{
		{"bad json", `{"app":`, ""},
		{"unknown field", `{"app":"Fasta","btac_entires":8}`, ""},
		{"missing app", `{"variant":"original"}`, ""},
		{"unknown app", `{"app":"Mummer"}`, ""},
		{"unknown variant", `{"app":"Fasta","variant":"turbo"}`, ""},
		{"fxus out of range", `{"app":"Fasta","fxus":99}`, ""},
		{"negative btac", `{"app":"Fasta","btac_entries":-1}`, ""},
		{"negative seed", `{"app":"Fasta","seeds":[-1]}`, ""},
		{"duplicate seed", `{"app":"Fasta","seeds":[3,3]}`, ""},
		{"scale out of range", `{"app":"Fasta","scale":1000}`, ""},
		{"bad timeout", `{"app":"Fasta"}`, "?timeout=banana"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postCell(s, tc.body, tc.query)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("error body not JSON with an error message: %s", w.Body)
			}
		})
	}
}

func TestSaturationFastFails429(t *testing.T) {
	s, _ := newTestServer(t,
		sched.Options{Workers: 1, Injector: hangInjector{500 * time.Millisecond}},
		Options{MaxInflight: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := postCell(s, `{"app":"Fasta"}`, ""); w.Code != http.StatusOK {
			t.Errorf("in-flight request: status %d, body %s", w.Code, w.Body)
		}
	}()
	waitInflight(t, s, 1)
	w := postCell(s, `{"app":"Hmmer"}`, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	wg.Wait()
	if v := s.Registry().Counter("server.requests.saturated").Value(); v != 1 {
		t.Errorf("server.requests.saturated = %d, want 1", v)
	}
}

func TestDeadlineExpiry504(t *testing.T) {
	s, _ := newTestServer(t,
		sched.Options{Workers: 1, Injector: hangInjector{10 * time.Second}},
		Options{})
	start := time.Now()
	w := postCell(s, `{"app":"Fasta"}`, "?timeout=100ms")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("504 took %v; the deadline did not cancel the cell", elapsed)
	}
}

// TestCoalescingConcurrentRequests is the acceptance criterion: two
// identical concurrent requests produce exactly one engine job, the
// second riding the first's in-flight future, asserted via the sched.*
// counters.
func TestCoalescingConcurrentRequests(t *testing.T) {
	s, eng := newTestServer(t,
		sched.Options{Workers: 2, Injector: hangInjector{300 * time.Millisecond}},
		Options{MaxInflight: 4})
	const body = `{"app":"Fasta","variant":"original","seeds":[1]}`
	var wg sync.WaitGroup
	codes := make([]int, 2)
	coalesced := make([]int, 2)
	launch := func(i int) {
		defer wg.Done()
		w := postCell(s, body, "")
		codes[i] = w.Code
		var resp CellResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil {
			coalesced[i] = resp.Coalesced
		}
	}
	wg.Add(2)
	go launch(0)
	waitInflight(t, s, 1)
	go launch(1)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("statuses = %v, want both 200", codes)
	}
	st := eng.Stats()
	if st.Submitted != 2 || st.Computed != 1 || st.MemoryHits != 1 {
		t.Errorf("sched counters: submitted=%d computed=%d memory_hits=%d, want 2/1/1",
			st.Submitted, st.Computed, st.MemoryHits)
	}
	if total := coalesced[0] + coalesced[1]; total != 1 {
		t.Errorf("coalesced fields sum to %d, want 1 (%v)", total, coalesced)
	}
	if v := s.Registry().Counter("server.cells.coalesced").Value(); v != 1 {
		t.Errorf("server.cells.coalesced = %d, want 1", v)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t,
		sched.Options{Workers: 1, Injector: hangInjector{400 * time.Millisecond}},
		Options{MaxInflight: 2})
	done := make(chan int, 1)
	go func() {
		w := postCell(s, `{"app":"Fasta"}`, "")
		done <- w.Code
	}()
	waitInflight(t, s, 1)

	s.StartDrain()
	if w := get(s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", w.Code)
	}
	if w := get(s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz while draining: %d, want 200", w.Code)
	}
	w := postCell(s, `{"app":"Hmmer"}`, "")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: %d, want 503 (body %s)", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("503 during drain without Retry-After header")
	}
	// The cell admitted before the drain started must finish normally.
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
}

// TestExperimentByteIdentity is the other acceptance criterion: the
// served experiment bytes equal the harness JSON for the same config —
// the exact output `bioperf5 run <id> -json` prints — for every
// experiment but the host-timed fig1.
func TestExperimentByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, _ := newTestServer(t, sched.Options{}, Options{})
	for _, e := range harness.Registry() {
		if e.ID == "fig1" {
			continue // host-timed: two runs never agree
		}
		w := get(s, "/v1/experiments/"+e.ID+"?seeds=1")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", e.ID, w.Code, w.Body)
		}
		reps, err := harness.RunPaper(harness.Config{Scale: 1, Seeds: []int64{1}}, e)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := reps[0].WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("served %s differs from local harness output:\nserved %d bytes, local %d bytes",
				e.ID, w.Body.Len(), want.Len())
		}
		if !strings.Contains(w.Body.String(), `"schema": "`+harness.SchemaVersion+`"`) {
			t.Errorf("served %s carries no schema field", e.ID)
		}
	}
	// Short alias and unknown id behave like the CLI.
	if w := get(s, "/v1/experiments/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown experiment: %d, want 404", w.Code)
	}
	if w := get(s, "/v1/experiments/fig3?seeds=1,1"); w.Code != http.StatusBadRequest {
		t.Errorf("duplicate query seeds: %d, want 400", w.Code)
	}
}

func TestBatchStreamsJSONL(t *testing.T) {
	s, eng := newTestServer(t, sched.Options{Workers: 2}, Options{})
	body := `{"cells":[
		{"app":"Fasta","seeds":[1]},
		{"app":"Fasta","seeds":[1]},
		{"app":"Hmmer","variant":"combo","seeds":[1]}
	]}`
	req := httptest.NewRequest("POST", "/v1/cells:batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL lines, want 3:\n%s", len(lines), w.Body)
	}
	seen := make(map[int]bool)
	for _, line := range lines {
		var item BatchItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, line)
		}
		if item.Status != "ok" || item.Result == nil {
			t.Errorf("cell %d: status=%q error=%q", item.Index, item.Status, item.Error)
		}
		seen[item.Index] = true
	}
	if len(seen) != 3 {
		t.Errorf("indices %v do not cover the batch", seen)
	}
	// Cells 0 and 1 are identical: one simulation, one coalesced hit.
	if st := eng.Stats(); st.Computed != 2 {
		t.Errorf("engine computed %d jobs, want 2 (identical cells coalesce)", st.Computed)
	}
}

func TestBatchValidation(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{MaxInflight: 2})
	for name, body := range map[string]string{
		"empty":         `{"cells":[]}`,
		"bad cell":      `{"cells":[{"app":"Nope"}]}`,
		"over maxbatch": `{"cells":[{"app":"Fasta"},{"app":"Hmmer"},{"app":"Blast"}]}`, // the batch limit is min(256, MaxInflight)
	} {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/cells:batch", strings.NewReader(body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
		})
	}
}

func TestBatchSaturation(t *testing.T) {
	s, _ := newTestServer(t,
		sched.Options{Workers: 1, Injector: hangInjector{500 * time.Millisecond}},
		Options{MaxInflight: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postCell(s, `{"app":"Fasta"}`, "")
	}()
	waitInflight(t, s, 1)
	// Two-cell batch wants 2 tokens; only 1 remains -> all-or-nothing 429.
	req := httptest.NewRequest("POST", "/v1/cells:batch",
		strings.NewReader(`{"cells":[{"app":"Hmmer"},{"app":"Blast"}]}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429 (body %s)", w.Code, w.Body)
	}
	wg.Wait()
	// The failed batch must have returned its partial tokens.
	if g := s.Registry().Gauge("server.cells.inflight"); g.Value() != 0 {
		t.Errorf("inflight gauge = %v after everything finished, want 0", g.Value())
	}
}

// TestBatchLargerThanAdmissionBoundIs400: admission is all-or-nothing,
// so a batch bigger than MaxInflight can never run — it must be refused
// outright (naming both numbers), not told to retry forever with a 429.
func TestBatchLargerThanAdmissionBoundIs400(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{MaxInflight: 2})
	batch := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/cells:batch", strings.NewReader(body)))
		return w
	}
	saturated := s.Registry().Counter("server.requests.saturated")
	w := batch(`{"cells":[{"app":"Fasta"},{"app":"Hmmer"},{"app":"Blast"}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("3-cell batch against MaxInflight 2: status = %d, want 400 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") != "" {
		t.Error("a batch that can never be admitted carries Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil ||
		!strings.Contains(er.Error, "3 cells") || !strings.Contains(er.Error, "2 cells in flight") {
		t.Errorf("error does not name both numbers: %s", w.Body)
	}
	if got := saturated.Value(); got != 0 {
		t.Errorf("server.requests.saturated = %d after a 400, want 0", got)
	}
	if w := batch(`{"cells":[{"app":"Fasta"},{"app":"Hmmer"}]}`); w.Code != http.StatusOK {
		t.Errorf("2-cell batch against MaxInflight 2: status = %d, want 200 (body %s)", w.Code, w.Body)
	}
}

func TestHealthzReadyzMetrics(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{})
	if w := get(s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("/healthz: %d %q", w.Code, w.Body)
	}
	if w := get(s, "/readyz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ready") {
		t.Errorf("/readyz: %d %q", w.Code, w.Body)
	}
	if w := postCell(s, `{"app":"Fasta","seeds":[1]}`, ""); w.Code != http.StatusOK {
		t.Fatalf("cell: %d %s", w.Code, w.Body)
	}
	w := get(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE server_requests counter",
		"# TYPE server_cells_inflight gauge",
		"# TYPE server_request_latency_us histogram",
		"server_request_latency_us_bucket{le=\"+Inf\"}",
		"sched_jobs_computed 1",
		"server_cells_admitted 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{})
	w := get(s, "/v1/cells")
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/cells: %d, want 405", w.Code)
	}
}

// TestRequestContextDefaults pins the ?timeout= parsing contract.
func TestRequestContextDefaults(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1},
		Options{DefaultTimeout: time.Minute})
	r := httptest.NewRequest("GET", "/v1/experiments/fig1", nil)
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("DefaultTimeout set but context has no deadline")
	}
	r = httptest.NewRequest("GET", "/v1/experiments/fig1?timeout=-3s", nil)
	if _, _, err := s.requestContext(r); err == nil {
		t.Error("negative timeout accepted")
	}
}
