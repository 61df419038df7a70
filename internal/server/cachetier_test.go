package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

func put(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("PUT", path, bytes.NewReader(body)))
	return w
}

func TestVersionEndpoint(t *testing.T) {
	s, _ := newTestServer(t, sched.Options{Workers: 1}, Options{})
	w := get(s, "/v1/version")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var v VersionInfo
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Schema != harness.SchemaVersion {
		t.Errorf("schema = %q, want %q", v.Schema, harness.SchemaVersion)
	}
	if v.Version == "" {
		t.Error("version is empty")
	}
}

func TestCacheEndpointRoundTrip(t *testing.T) {
	// A real worker engine computes one job and holds its verified
	// entry; the hub server accepts that entry and serves it back
	// byte-for-byte.
	worker := sched.New(sched.Options{Workers: 1, CacheDir: t.TempDir()})
	t.Cleanup(worker.Close)
	job := sched.Job{App: "Clustalw", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(), Seed: 1, Scale: 1}
	if _, err := worker.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	entry, ok := worker.Results().Entry(job.Hash())
	if !ok {
		t.Fatal("worker holds no cache entry after a run")
	}

	hub, _ := newTestServer(t, sched.Options{Workers: 1, CacheDir: t.TempDir()}, Options{})
	if w := get(hub, "/v1/cache/"+job.Hash()); w.Code != http.StatusNotFound {
		t.Fatalf("cold hub GET = %d, want 404", w.Code)
	}
	if w := put(hub, "/v1/cache/"+job.Hash(), entry); w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, body %s", w.Code, w.Body)
	}
	w := get(hub, "/v1/cache/"+job.Hash())
	if w.Code != http.StatusOK {
		t.Fatalf("warm hub GET = %d, body %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), entry) {
		t.Error("hub returned different bytes than it was given")
	}
	reg := hub.Registry()
	if reg.Counter("server.cache.puts").Value() != 1 || reg.Counter("server.cache.hits").Value() != 1 ||
		reg.Counter("server.cache.misses").Value() != 1 {
		t.Errorf("cache counters: puts=%v hits=%v misses=%v",
			reg.Counter("server.cache.puts").Value(),
			reg.Counter("server.cache.hits").Value(),
			reg.Counter("server.cache.misses").Value())
	}
}

func TestCacheEndpointValidation(t *testing.T) {
	hub, _ := newTestServer(t, sched.Options{Workers: 1, CacheDir: t.TempDir()}, Options{})
	if w := get(hub, "/v1/cache/not-a-hash"); w.Code != http.StatusBadRequest {
		t.Errorf("bad key GET = %d, want 400", w.Code)
	}
	zeros := strings.Repeat("0", 64)
	if w := put(hub, "/v1/cache/"+zeros, []byte("garbage")); w.Code != http.StatusBadRequest {
		t.Errorf("garbage PUT = %d, want 400", w.Code)
	}
}

// TestCachePutAcceptsWhatAFetchWould: the hub and its clients share one
// size cap per kind, so an entry a worker would accept from the hub is
// one the hub accepts from a worker.  (The endpoint used to cap uploads
// at 1 MiB while the client read up to 4 MiB.)
func TestCachePutAcceptsWhatAFetchWould(t *testing.T) {
	worker := sched.New(sched.Options{Workers: 1, CacheDir: t.TempDir()})
	t.Cleanup(worker.Close)
	job := sched.Job{App: "Fasta", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(), Seed: 1, Scale: 1}
	if _, err := worker.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	entry, _ := worker.Results().Entry(job.Hash())
	// Trailing whitespace keeps the entry valid JSON and verifiable.
	padded := append(entry, bytes.Repeat([]byte{' '}, 2<<20)...)
	if err := sched.EntryKind.Verify(job.Hash(), padded); err != nil {
		t.Fatalf("padded entry does not verify: %v", err)
	}
	hub, _ := newTestServer(t, sched.Options{Workers: 1, CacheDir: t.TempDir()}, Options{})
	if w := put(hub, "/v1/cache/"+job.Hash(), padded); w.Code != http.StatusNoContent {
		t.Fatalf("PUT of a %d-byte entry under the %d-byte cap = %d, body %s",
			len(padded), sched.EntryKind.MaxBytes, w.Code, w.Body)
	}
	over := append(entry, bytes.Repeat([]byte{' '}, int(sched.EntryKind.MaxBytes))...)
	if w := put(hub, "/v1/cache/"+job.Hash(), over); w.Code != http.StatusBadRequest {
		t.Errorf("PUT past the cap = %d, want 400", w.Code)
	}
}

func TestCachePutDisklessHubRefuses(t *testing.T) {
	hub, _ := newTestServer(t, sched.Options{Workers: 1}, Options{}) // no CacheDir
	w := put(hub, "/v1/cache/"+strings.Repeat("0", 64), []byte("{}"))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("diskless PUT = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "-cache-dir") {
		t.Errorf("error should tell the operator the fix: %s", w.Body)
	}
}

func TestTraceEndpointRoundTrip(t *testing.T) {
	var b trace.Builder
	for pc := 0; pc < 64; pc++ {
		b.Add(trace.Record{PC: pc, HasEA: true, EA: uint64(pc * 64)})
	}
	tr, err := b.Finish(trace.Meta{App: "Fasta", Variant: "original", Seed: 1, Scale: 1,
		ProgHash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	body, err := tr.EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	hash := trace.KeyFromMeta(tr.Meta).Hash()

	hub, _ := newTestServer(t, sched.Options{Workers: 1}, Options{})
	if w := get(hub, "/v1/traces/"+hash); w.Code != http.StatusNotFound {
		t.Fatalf("cold GET = %d, want 404", w.Code)
	}
	if w := get(hub, "/v1/traces/nope"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad key GET = %d, want 400", w.Code)
	}
	// A trace parked at the wrong address is refused.
	if w := put(hub, "/v1/traces/"+strings.Repeat("a", 64), body); w.Code != http.StatusBadRequest {
		t.Fatalf("wrong-address PUT = %d, want 400", w.Code)
	}
	if w := put(hub, "/v1/traces/"+hash, body); w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, body %s", w.Code, w.Body)
	}
	w := get(hub, "/v1/traces/"+hash)
	if w.Code != http.StatusOK {
		t.Fatalf("warm GET = %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), body) {
		t.Error("hub returned different trace bytes than it was given")
	}
	reg := hub.Registry()
	if reg.Counter("server.traces.puts").Value() != 1 || reg.Counter("server.traces.hits").Value() != 1 {
		t.Errorf("trace counters: puts=%v hits=%v",
			reg.Counter("server.traces.puts").Value(),
			reg.Counter("server.traces.hits").Value())
	}
}
