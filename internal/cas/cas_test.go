// The conformance suite runs every promise internal/cas makes over both
// payload kinds with real payloads: a result entry a live engine wrote
// and a trace captured from a kernel.
package cas_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioperf5/internal/cas"
	"bioperf5/internal/cpu"
	"bioperf5/internal/fsck"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
)

// payload is one kind with two real blobs of it at their addresses.
type payload struct {
	kind         cas.Kind
	hash, other  string // other addresses a second, different blob
	blob, blobAt []byte // blob answers hash; blobAt answers other
}

func payloads(t *testing.T) []payload {
	t.Helper()
	eng := sched.New(sched.Options{Workers: 1, CacheDir: t.TempDir()})
	defer eng.Close()
	var entries payload
	entries.kind = sched.EntryKind
	var traces payload
	traces.kind = trace.FileKind
	for i, seed := range []int64{1, 2} {
		job := sched.Job{App: "Fasta", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline(), Seed: seed, Scale: 1}
		if _, err := eng.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		entry, ok := eng.Results().Entry(job.Hash())
		if !ok {
			t.Fatal("engine wrote no result entry")
		}
		k, err := kernels.ByApp("Fasta")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := kernels.CaptureTrace(k, kernels.Branchy, seed, 1, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		file, err := tr.EncodeFile()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			entries.hash, entries.blob = job.Hash(), entry
			traces.hash, traces.blob = trace.KeyFromMeta(tr.Meta).Hash(), file
		} else {
			entries.other, entries.blobAt = job.Hash(), entry
			traces.other, traces.blobAt = trace.KeyFromMeta(tr.Meta).Hash(), file
		}
	}
	return []payload{entries, traces}
}

type fixture struct {
	payload
	reg  *telemetry.Registry
	path string
	dir  *cas.Dir
}

func newFixture(t *testing.T, p payload) *fixture {
	reg := telemetry.NewRegistry()
	path := t.TempDir()
	return &fixture{payload: p, reg: reg, path: path,
		dir: cas.NewDir(p.kind, path, reg.Counter("writes"), reg.Counter("corrupt"))}
}

func (f *fixture) count(name string) uint64 { return f.reg.Counter(name).Value() }

func (f *fixture) file(hash string) string { return filepath.Join(f.path, hash+f.kind.Ext) }

// files lists the directory, so "nothing on disk" is checked literally.
func (f *fixture) files(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(f.path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// hub serves f's directory the way `bioperf5 serve` does.
func (f *fixture) hub(t *testing.T, src cas.Source) *httptest.Server {
	mux := http.NewServeMux()
	cas.Register(mux, f.kind, src, f.reg, "server",
		func(w http.ResponseWriter, status int, format string, args ...any) {
			http.Error(w, fmt.Sprintf(format, args...), status)
		})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestConformance(t *testing.T) {
	for _, p := range payloads(t) {
		p := p
		t.Run(p.kind.Route, func(t *testing.T) {
			t.Run("round trip", func(t *testing.T) { roundTrip(t, newFixture(t, p)) })
			t.Run("torn file", func(t *testing.T) { tornFile(t, newFixture(t, p)) })
			t.Run("wrong key", func(t *testing.T) { wrongKey(t, newFixture(t, p)) })
			t.Run("stale temps", func(t *testing.T) { staleTemps(t, newFixture(t, p)) })
			t.Run("upstream", func(t *testing.T) { upstream(t, newFixture(t, p)) })
			t.Run("hub", func(t *testing.T) { hub(t, newFixture(t, p)) })
		})
	}
}

func roundTrip(t *testing.T, f *fixture) {
	if _, ok := f.dir.Entry(f.hash); ok {
		t.Fatal("hit in an empty directory")
	}
	if err := f.dir.Write(f.hash, f.blob); err != nil {
		t.Fatal(err)
	}
	got, ok := f.dir.Entry(f.hash)
	if !ok || !bytes.Equal(got, f.blob) {
		t.Fatalf("Entry after Write: ok=%v, %d bytes, want %d", ok, len(got), len(f.blob))
	}
	decodes := 0
	if !f.dir.Load(f.hash, func(b []byte) error { decodes++; return f.kind.Verify(f.hash, b) }) || decodes != 1 {
		t.Errorf("Load: decode ran %d times, want a hit after exactly one", decodes)
	}
	if names := f.files(t); len(names) != 1 || names[0] != f.hash+f.kind.Ext {
		t.Errorf("directory holds %v, want only the blob", names)
	}
	if f.count("writes") != 1 || f.count("corrupt") != 0 {
		t.Errorf("writes=%d corrupt=%d, want 1/0", f.count("writes"), f.count("corrupt"))
	}
	// The absent tier misses and refuses without a branch at the caller.
	var none *cas.Dir
	if _, ok := none.Entry(f.hash); ok {
		t.Error("nil Dir hit")
	}
	if err := none.Install(f.hash, f.blob); !errors.Is(err, cas.ErrNoDir) {
		t.Errorf("nil Dir Install = %v, want ErrNoDir", err)
	}
}

func tornFile(t *testing.T, f *fixture) {
	if err := f.dir.Write(f.hash, f.blob); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.Tear(f.hash); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(f.file(f.hash)); err != nil || fi.Size() != int64(len(f.blob)/2) {
		t.Fatalf("Tear left %v, %v; want the file at half size", fi, err)
	}
	if _, ok := f.dir.Entry(f.hash); ok {
		t.Fatal("a torn blob was served")
	}
	if f.count("corrupt") != 1 {
		t.Errorf("corrupt=%d, want 1", f.count("corrupt"))
	}
	if names := f.files(t); len(names) != 0 {
		t.Errorf("the corrupt blob was left in place: %v", names)
	}
	// The recompute's write heals the address.
	if err := f.dir.Write(f.hash, f.blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.dir.Entry(f.hash); !ok || f.count("corrupt") != 1 {
		t.Errorf("not healed by the next write (corrupt=%d)", f.count("corrupt"))
	}
}

func wrongKey(t *testing.T, f *fixture) {
	err := f.kind.Verify(f.other, f.blob)
	if !errors.Is(err, cas.ErrWrongKey) {
		t.Fatalf("Verify(sound blob, another address) = %v, want ErrWrongKey", err)
	}
	if err := f.dir.Install(f.other, f.blob); !errors.Is(err, cas.ErrWrongKey) {
		t.Fatalf("Install at the wrong address = %v, want ErrWrongKey", err)
	}
	if names := f.files(t); len(names) != 0 {
		t.Fatalf("a refused install left %v", names)
	}
	// Parked there by some other tool, it is corrupt like any other.
	if err := os.WriteFile(f.file(f.other), f.blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.dir.Entry(f.other); ok || f.count("corrupt") != 1 {
		t.Errorf("misfiled blob: served=%v corrupt=%d, want a counted miss", ok, f.count("corrupt"))
	}
}

func staleTemps(t *testing.T, f *fixture) {
	// What WriteFileAtomic leaves when the process dies inside the write.
	func() {
		defer func() { recover() }()
		cas.WriteFileAtomic(f.file(f.hash), func(w io.Writer) error {
			w.Write(f.blob[:len(f.blob)/2])
			panic("power cut")
		})
	}()
	left := f.files(t)
	if len(left) != 1 || !strings.HasPrefix(left[0], f.hash+f.kind.Ext+".tmp") {
		t.Fatalf("interrupted write left %v, want one %s.tmp* file", left, f.hash+f.kind.Ext)
	}
	if _, ok := f.dir.Entry(f.hash); ok || f.count("corrupt") != 0 {
		t.Errorf("a stale temp was read: served=%v corrupt=%d", ok, f.count("corrupt"))
	}
	if err := f.dir.Write(f.hash, f.blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.dir.Entry(f.hash); !ok {
		t.Error("miss beside a stale temp")
	}
	// fsck knows the temp by the one naming rule and takes it away.
	rep, err := fsck.Run([]string{f.path})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != fsck.KindStaleTemp ||
		rep.Findings[0].Path != filepath.Join(f.path, left[0]) {
		t.Errorf("fsck findings = %+v, want the stale temp alone", rep.Findings)
	}
	if rep.OK != 1 {
		t.Errorf("fsck verified %d blobs ok, want the healthy one", rep.OK)
	}
}

// upstream drives the client against every way a hub can answer.
func upstream(t *testing.T, f *fixture) {
	var answer func(w http.ResponseWriter)
	var gotPut []byte
	var gotType string
	route := "/v1/" + f.kind.Route + "/"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != route+f.hash {
			t.Errorf("request for %s, want %s", r.URL.Path, route+f.hash)
		}
		if r.Method == http.MethodPut {
			gotPut, _ = io.ReadAll(r.Body)
			gotType = r.Header.Get("Content-Type")
		}
		answer(w)
	}))
	defer ts.Close()
	c := cas.NewClient(f.kind, ts.URL+"/", nil, f.reg, "up")

	for _, tc := range []struct {
		name    string
		answer  func(w http.ResponseWriter)
		counter string // the one counter that moves
		decoded bool   // whether the body reaches the owner's codec at all
		hit     bool
	}{
		{"hit", func(w http.ResponseWriter) { w.Write(f.blob) }, "up.hits", true, true},
		{"404", func(w http.ResponseWriter) { http.Error(w, "miss", 404) }, "up.misses", false, false},
		{"500", func(w http.ResponseWriter) { http.Error(w, "boom", 500) }, "up.errors", false, false},
		{"truncated", func(w http.ResponseWriter) { w.Write(f.blob[:len(f.blob)/2]) }, "up.errors", true, false},
		{"lying", func(w http.ResponseWriter) { w.Write(f.blobAt) }, "up.errors", true, false},
		{"oversize", func(w http.ResponseWriter) {
			w.Write(f.blob)
			w.Write(make([]byte, f.kind.MaxBytes))
		}, "up.errors", false, false},
	} {
		before := map[string]uint64{}
		for _, n := range []string{"up.hits", "up.misses", "up.errors", "up.puts"} {
			before[n] = f.count(n)
		}
		answer = tc.answer
		decoded := false
		hit := c.Get(context.Background(), f.hash, func(b []byte) error {
			decoded = true
			return f.kind.Verify(f.hash, b)
		})
		if hit != tc.hit || decoded != tc.decoded {
			t.Errorf("%s: hit=%v decoded=%v, want %v/%v", tc.name, hit, decoded, tc.hit, tc.decoded)
		}
		for n, was := range before {
			want := was
			if n == tc.counter {
				want++
			}
			if f.count(n) != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, n, f.count(n), want)
			}
		}
	}

	// A cancelled caller is not kept waiting, and it is an error, not a miss.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := f.count("up.errors")
	if c.Get(ctx, f.hash, func([]byte) error { return nil }) || f.count("up.errors") != errs+1 {
		t.Error("a cancelled context still fetched")
	}

	answer = func(w http.ResponseWriter) { w.WriteHeader(http.StatusNoContent) }
	c.Put(context.Background(), f.hash, f.blob)
	if !bytes.Equal(gotPut, f.blob) || gotType != f.kind.ContentType || f.count("up.puts") != 1 {
		t.Errorf("Put sent %d bytes as %q (puts=%d), want the blob as %q",
			len(gotPut), gotType, f.count("up.puts"), f.kind.ContentType)
	}
	answer = func(w http.ResponseWriter) { http.Error(w, "no", 503) }
	errs = f.count("up.errors")
	if c.Put(context.Background(), f.hash, f.blob); f.count("up.errors") != errs+1 || f.count("up.puts") != 1 {
		t.Error("a refused Put was not counted as an error")
	}

	// The absent tier: no hub configured.
	if none := cas.NewClient(f.kind, "", nil, f.reg, "none"); none != nil ||
		none.Get(context.Background(), f.hash, nil) {
		t.Error("a client without an upstream fetched something")
	}
}

// hub drives the endpoints with the real client and with raw requests.
func hub(t *testing.T, f *fixture) {
	ts := f.hub(t, f.dir)
	url := ts.URL + "/v1/" + f.kind.Route + "/"
	do := func(method, key string, body []byte) *http.Response {
		req, err := http.NewRequest(method, url+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := do("GET", f.hash, nil); resp.StatusCode != 404 {
		t.Errorf("cold GET = %d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{"zz", strings.Repeat("A", 64), strings.Repeat("0", 63)} {
		if resp := do("GET", bad, nil); resp.StatusCode != 400 {
			t.Errorf("GET key %q = %d, want 400", bad, resp.StatusCode)
		}
		if resp := do("PUT", bad, f.blob); resp.StatusCode != 400 {
			t.Errorf("PUT key %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	// Unverifiable bodies: garbage, a torn blob, a sound blob for another
	// address, one byte past the cap.  All 400, nothing on disk.
	for name, body := range map[string][]byte{
		"garbage":   []byte("garbage"),
		"torn":      f.blob[:len(f.blob)/2],
		"wrong key": f.blobAt,
		"oversize":  append(append([]byte{}, f.blob...), make([]byte, f.kind.MaxBytes)...),
	} {
		if resp := do("PUT", f.hash, body); resp.StatusCode != 400 {
			t.Errorf("PUT %s = %d, want 400", name, resp.StatusCode)
		}
	}
	if names := f.files(t); len(names) != 0 || f.count("server."+f.kind.Route+".puts") != 0 {
		t.Fatalf("refused uploads left %v on disk", names)
	}

	// The real client against the real endpoints.
	c := cas.NewClient(f.kind, ts.URL, nil, f.reg, "up")
	c.Put(context.Background(), f.hash, f.blob)
	var got []byte
	if !c.Get(context.Background(), f.hash, func(b []byte) error { got = b; return f.kind.Verify(f.hash, b) }) ||
		!bytes.Equal(got, f.blob) {
		t.Fatal("Put then Get through the hub did not return the blob")
	}
	resp := do("GET", f.hash, nil)
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != f.kind.ContentType {
		t.Errorf("warm GET = %d %q, want 200 %q", resp.StatusCode, ct, f.kind.ContentType)
	}
	prefix := "server." + f.kind.Route
	if f.count(prefix+".puts") != 1 || f.count(prefix+".hits") != 2 || f.count(prefix+".misses") != 1 {
		t.Errorf("%s.*: puts=%d hits=%d misses=%d, want 1/2/1", prefix,
			f.count(prefix+".puts"), f.count(prefix+".hits"), f.count(prefix+".misses"))
	}

	// A hub that cannot keep blobs says so with 503 — decided by the
	// sentinel however deeply it is wrapped, not by the message.
	for name, src := range map[string]cas.Source{
		"no directory":     (*cas.Dir)(nil),
		"wrapped sentinel": failingSource{fmt.Errorf("hub: disk tier: %w", cas.ErrNoDir)},
	} {
		ts := f.hub(t, src)
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/"+f.kind.Route+"/"+f.hash, bytes.NewReader(f.blob))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 503 || !strings.Contains(string(msg), "-cache-dir") {
			t.Errorf("%s: PUT = %d %q, want 503 naming -cache-dir", name, resp.StatusCode, msg)
		}
	}
}

type failingSource struct{ err error }

func (s failingSource) Entry(string) ([]byte, bool)  { return nil, false }
func (s failingSource) Install(string, []byte) error { return s.err }

func TestValidKey(t *testing.T) {
	good := strings.Repeat("0123456789abcdef", 4)
	for key, want := range map[string]bool{
		good:                       true,
		good[:63]:                  false,
		good + "0":                 false,
		strings.ToUpper(good):      false,
		"../" + good[3:]:           false,
		good[:60] + ".tmp":         false,
		"":                         false,
		strings.Repeat("g", 64):    false,
		strings.Repeat("\x00", 64): false,
	} {
		if cas.ValidKey(key) != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, !want, want)
		}
	}
}

func TestWriteFileAtomicCleansUpAFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "manifest.json") // the directory is created
	boom := errors.New("encoder failed")
	if err := cas.WriteFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 0 {
		t.Errorf("a failed write left %d files", len(ents))
	}
	for _, content := range []string{"first", "second"} {
		if err := cas.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Errorf("file holds %q, want %q", b, content)
		}
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Errorf("%d files after two writes, want the one", len(ents))
	}
}

// TestMemo pins the memo's rules: joiners share the lead's fill, a
// failed fill is forgotten, the least recently used value goes first
// (a Get counts as a use), and the newest stays even alone over budget.
func TestMemo(t *testing.T) {
	ev := telemetry.NewRegistry().Counter("evictions")
	m := cas.NewMemo(3, func(n int) int64 { return int64(n) }, ev)
	fill := func(key string, v int, err error) {
		t.Helper()
		_, fl, lead := m.Join(key)
		if !lead {
			t.Fatalf("%s: a fresh key did not lead", key)
		}
		_, joined, again := m.Join(key)
		if joined != fl || again {
			t.Fatalf("%s: a second caller did not join the running fill", key)
		}
		m.Finish(fl, v, err)
		if got, gerr := joined.Wait(); got != v || gerr != err {
			t.Fatalf("%s: joiner got %d, %v", key, got, gerr)
		}
	}
	fill("bad", 1, errors.New("transient"))
	if _, _, lead := m.Join("bad"); !lead {
		t.Error("a failed fill was remembered")
	}
	fill("a", 1, nil)
	fill("b", 1, nil)
	if v, fl, lead := m.Join("a"); v != 1 || fl != nil || lead {
		t.Errorf("resident a: Join = %d, %v, %v", v, fl, lead)
	}
	fill("c", 2, nil) // 4 bytes: b, least recently used, goes
	if _, ok := m.Get("b"); ok {
		t.Error("b survived; the LRU order ignored the join of a")
	}
	m.Put("d", 9) // alone over budget: kept, everything else goes
	if n, b := m.Usage(); n != 1 || b != 9 || ev.Value() != 3 {
		t.Errorf("usage %d values, %d bytes, %d evictions; want 1, 9, 3", n, b, ev.Value())
	}
}
