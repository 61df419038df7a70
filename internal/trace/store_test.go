package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
)

func testKey(i int) Key {
	return Key{App: "Fasta", Variant: "original", Seed: int64(i), Scale: 1,
		ProgHash: "abc"}
}

// testTrace builds a trace of at least n payload bytes answering
// testKey(i): memory ops only, 12 bytes a record.
func testTrace(i, n int) *Trace {
	var b Builder
	for pc := 0; pc*(headBytes+eaBytes) < n; pc++ {
		b.Add(Record{PC: pc, HasEA: true, EA: uint64(pc * 64)})
	}
	k := testKey(i)
	tr, err := b.Finish(Meta{App: k.App, Variant: k.Variant, Seed: k.Seed,
		Scale: k.Scale, ProgHash: k.ProgHash})
	if err != nil {
		panic(err)
	}
	return tr
}

func TestStoreGetOrCapture(t *testing.T) {
	s := NewStore(StoreOptions{})
	var captures atomic.Int64
	capture := func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 100), nil
	}
	tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), capture)
	if err != nil || hit || tr == nil {
		t.Fatalf("first call = (%v, %v, %v), want fresh capture", tr, hit, err)
	}
	tr2, hit, err := s.GetOrCapture(context.Background(), testKey(1), capture)
	if err != nil || !hit || tr2 != tr {
		t.Fatalf("second call = (%p vs %p, %v, %v), want memory hit", tr2, tr, hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("captured %d times, want 1", captures.Load())
	}
	st := s.Stats()
	if st.Captures != 1 || st.MemoryHits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreCaptureErrorNotCached(t *testing.T) {
	s := NewStore(StoreOptions{})
	var calls atomic.Int64
	_, _, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		calls.Add(1)
		return nil, errors.New("transient")
	})
	if err == nil {
		t.Fatal("capture error swallowed")
	}
	if _, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		calls.Add(1)
		return testTrace(1, 10), nil
	}); err != nil || hit {
		t.Fatalf("retry = (hit=%v, %v), want fresh capture", hit, err)
	}
	if calls.Load() != 2 {
		t.Errorf("capture called %d times, want 2 (errors must not be cached)", calls.Load())
	}
}

// TestStoreSingleFlight hammers one key from many goroutines: exactly
// one capture runs, every other caller coalesces onto it as a hit.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(StoreOptions{})
	var captures atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	var misses atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
				captures.Add(1)
				<-release
				return testTrace(1, 10), nil
			})
			if err != nil {
				t.Error(err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	// Let the flight register before releasing the capture.  The other
	// goroutines either wait on it or hit memory afterwards; none may
	// start a second capture.
	for s.Stats().Captures == 0 && captures.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if captures.Load() != 1 {
		t.Errorf("captured %d times, want 1", captures.Load())
	}
	if misses.Load() != 1 {
		t.Errorf("%d callers report a miss, want exactly the capturing one", misses.Load())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	one := testTrace(1, 1000)
	budget := 3 * one.SizeBytes()
	s := NewStore(StoreOptions{budget: budget})
	for i := 1; i <= 5; i++ {
		i := i
		if _, _, err := s.GetOrCapture(context.Background(), testKey(i), func() (*Trace, error) {
			return testTrace(i, 1000), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() > budget {
		t.Errorf("store holds %d bytes over the %d budget", s.Bytes(), budget)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions past the byte budget")
	}
	// The oldest keys were evicted, the newest survive.
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("oldest trace still resident past the budget")
	}
	if _, ok := s.Get(testKey(5)); !ok {
		t.Error("newest trace evicted")
	}
}

func TestStoreKeepsNewestOverBudget(t *testing.T) {
	s := NewStore(StoreOptions{budget: 1}) // every trace exceeds this
	if _, _, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 1000), nil
	}); err != nil {
		t.Fatal(err)
	}
	// The sole resident trace must not be evicted by its own install:
	// that would force a recapture on every request (livelock).
	if _, ok := s.Get(testKey(1)); !ok {
		t.Fatal("newest trace evicted by its own install")
	}
}

func TestStoreDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats after capture = %+v", st)
	}

	// A second store over the same directory must load from disk, not
	// capture.
	s2 := NewStore(StoreOptions{Dir: dir})
	tr, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return nil, errors.New("should have been a disk hit")
	})
	if err != nil || !hit {
		t.Fatalf("disk tier = (hit=%v, %v)", hit, err)
	}
	if tr.Meta.Seed != 1 {
		t.Errorf("disk-loaded meta = %+v", tr.Meta)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Captures != 0 {
		t.Errorf("stats after disk hit = %+v", st)
	}
}

// TestStoreDiskCorruptionFallsBackToCapture flips one byte of the
// stored trace file: the checksum must catch it, the file must be
// removed, and the store must fall back to a fresh capture.
func TestStoreDiskCorruptionFallsBackToCapture(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testKey(1).Hash()+".trace")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var captures atomic.Int64
	s2 := NewStore(StoreOptions{Dir: dir})
	_, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 100), nil
	})
	if err != nil || hit {
		t.Fatalf("corrupt file served: (hit=%v, %v)", hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("capture ran %d times, want 1", captures.Load())
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The recapture healed the file: a third store disk-hits again.
	s3 := NewStore(StoreOptions{Dir: dir})
	if _, ok := s3.Get(testKey(1)); !ok {
		t.Error("entry not healed after corruption recapture")
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Errorf("stats after heal = %+v", st)
	}
}

// TestStoreDiskKeyMismatchRejected copies a valid trace file to another
// key's address: the embedded meta no longer answers that key, so it
// must be treated as corrupt.
func TestStoreDiskKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(StoreOptions{Dir: dir})
	if _, _, err := s1.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, testKey(1).Hash()+".trace")
	dst := filepath.Join(dir, testKey(2).Hash()+".trace")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(StoreOptions{Dir: dir})
	_, hit, err := s2.GetOrCapture(context.Background(), testKey(2), func() (*Trace, error) {
		return testTrace(2, 100), nil
	})
	if err != nil || hit {
		t.Fatalf("mismatched file served: (hit=%v, %v)", hit, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStoreRefusesFilesThatCannotReplay: a sound checksum over a file
// DecodeFile refuses — a payload that disagrees with its record count,
// or a meta of an older format version — is corruption like any other:
// refused on upload, and on disk detected, removed and recaptured,
// instead of a resident trace that fails every cell that asks for it.
func TestStoreRefusesFilesThatCannotReplay(t *testing.T) {
	for name, damage := range map[string]func(*Meta){
		"record count":     func(m *Meta) { m.Records-- }, // the payload now carries one record too many
		"format version 2": func(m *Meta) { m.Schema = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			good := testTrace(1, 200)
			meta := good.Meta
			damage(&meta)
			file, err := unchecked(meta, good.Payload).EncodeFile()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeFile(file); !errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), "checksum") {
				t.Fatalf("DecodeFile = %v, want ErrCorrupt behind a sound checksum", err)
			}
			hash := testKey(1).Hash()

			dir := t.TempDir()
			s := NewStore(StoreOptions{Dir: dir})
			if err := s.Install(hash, file); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Install = %v, want ErrCorrupt", err)
			}
			if s.Len() != 0 {
				t.Fatal("a refused upload is resident")
			}

			path := filepath.Join(dir, hash+".trace")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) { return good, nil })
			if err != nil || hit || tr != good {
				t.Fatalf("GetOrCapture = (%p, hit %v, %v), want a fresh capture", tr, hit, err)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Captures != 1 || st.DiskWrites != 1 {
				t.Errorf("stats = %+v, want the file counted corrupt and rewritten", st)
			}
			if b, err := os.ReadFile(path); err != nil || bytes.Equal(b, file) {
				t.Errorf("the refused file is still on disk (%v)", err)
			}
		})
	}
}

func TestStorePutReplaces(t *testing.T) {
	s := NewStore(StoreOptions{})
	s.Put(testKey(1), testTrace(1, 100))
	bigger := testTrace(1, 500)
	s.Put(testKey(1), bigger)
	got, ok := s.Get(testKey(1))
	if !ok || got != bigger {
		t.Fatal("Put did not replace the stored trace")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after replacing one key", s.Len())
	}
	if s.Bytes() != bigger.SizeBytes() {
		t.Errorf("Bytes = %d, want %d (old size must be released)", s.Bytes(), bigger.SizeBytes())
	}
}

// TestStoreBytesCountPayloadAndColumns: the byte budget is charged
// what a resident trace really holds — its payload, which is both
// columns — and the store's figure is the sum over its entries after
// captures, after disk loads that have since been replayed, and after
// evictions.
func TestStoreBytesCountPayloadAndColumns(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	resident := func(s *Store, keys ...int) (sum int64) {
		for _, i := range keys {
			tr, ok := s.Get(testKey(i))
			if !ok {
				t.Fatalf("trace %d not resident", i)
			}
			sum += tr.SizeBytes()
		}
		return sum
	}
	agree := func(when string, s *Store, want int64) {
		t.Helper()
		if s.Bytes() != want || s.Stats().Bytes != want {
			t.Errorf("%s: Bytes = %d, Stats.Bytes = %d, entries sum to %d", when, s.Bytes(), s.Stats().Bytes, want)
		}
	}

	writer := NewStore(StoreOptions{Dir: dir, Registry: reg})
	for i := 1; i <= 3; i++ {
		i := i
		tr, _, err := writer.GetOrCapture(context.Background(), testKey(i), func() (*Trace, error) { return testTrace(i, 1000*i), nil })
		if err != nil {
			t.Fatal(err)
		}
		// testTrace is all memory ops: 4 + 8 column bytes per record.
		if want := 12*int64(tr.Meta.Records) + 256; tr.SizeBytes() != want {
			t.Fatalf("trace %d: SizeBytes = %d, want %d", i, tr.SizeBytes(), want)
		}
	}
	captured := resident(writer, 1, 2, 3)
	agree("after capture", writer, captured)
	if g := reg.Gauge("trace.bytes").Value(); int64(g) != captured {
		t.Errorf("trace.bytes gauge = %v, want %d", g, captured)
	}

	reader := NewStore(StoreOptions{Dir: dir})
	for i := 1; i <= 3; i++ {
		tr, ok := reader.Get(testKey(i))
		if !ok {
			t.Fatalf("trace %d not loaded from disk", i)
		}
		if err := iterErr(tr); err != nil {
			t.Fatal(err)
		}
	}
	if st := reader.Stats(); st.DiskHits != 3 {
		t.Fatalf("stats = %+v, want 3 disk hits", st)
	}
	agree("after replayed disk loads", reader, captured)

	// Room for the two largest: installing them in turn evicts the rest.
	small := NewStore(StoreOptions{Dir: dir, budget: captured - 1})
	for i := 1; i <= 3; i++ {
		if _, ok := small.Get(testKey(i)); !ok {
			t.Fatalf("trace %d not loaded from disk", i)
		}
	}
	if st := small.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want one eviction", st)
	}
	agree("after eviction", small, resident(small, 2, 3))
}

func TestStoreNoStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	for i := 1; i <= 4; i++ {
		s.Put(testKey(i), testTrace(i, 100))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			t.Errorf("stray file in trace dir: %s", ent.Name())
		}
	}
	if len(entries) != 4 {
		t.Errorf("%d files on disk, want 4", len(entries))
	}
}

func TestStoreStatsJSONShape(t *testing.T) {
	// Stats is part of the sweep manifest surface; keep the field set
	// stable.
	st := Stats{Captures: 1, MemoryHits: 2, DiskHits: 3, DiskWrites: 4,
		Corrupt: 5, Evictions: 6, RemoteHits: 9, RemotePuts: 10, Faults: 11, Bytes: 7, Entries: 8}
	got := fmt.Sprintf("%+v", st)
	want := "{Captures:1 MemoryHits:2 DiskHits:3 DiskWrites:4 Corrupt:5 Evictions:6 RemoteHits:9 RemotePuts:10 Faults:11 Bytes:7 Entries:8}"
	if got != want {
		t.Errorf("Stats shape changed: %s", got)
	}
}

func TestStoreSiteTraceInjectionTearsWriteAndHeals(t *testing.T) {
	dir := t.TempDir()
	// Rate-1 SiteTrace corruption: every disk write is torn after
	// landing.
	plan, err := fault.Parse("tracecorrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreOptions{Dir: dir, Injector: plan})
	tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) { return testTrace(1, 200), nil })
	if err != nil || hit || tr == nil {
		t.Fatalf("capture = (%v, %v, %v)", tr, hit, err)
	}
	if s.Stats().Faults != 1 {
		t.Fatalf("injected faults = %d, want 1", s.Stats().Faults)
	}
	// The torn file must not decode.
	path := filepath.Join(dir, testKey(1).Hash()+".trace")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b); err == nil {
		t.Fatal("torn trace file still decodes")
	}
	// This store still serves from memory, untroubled.
	if _, ok := s.Get(testKey(1)); !ok {
		t.Fatal("in-memory tier lost the trace")
	}
	// The next process detects the damage and recaptures.
	s2 := NewStore(StoreOptions{Dir: dir})
	var captures atomic.Int64
	tr2, hit, err := s2.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 200), nil
	})
	if err != nil || hit || tr2 == nil || captures.Load() != 1 {
		t.Fatalf("heal = (%v, %v, %v), captures %d; want fresh recapture", tr2, hit, err, captures.Load())
	}
	if s2.Stats().Corrupt != 1 {
		t.Errorf("corrupt detections = %d, want 1", s2.Stats().Corrupt)
	}
	// The healed file round-trips.
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b2); err != nil {
		t.Errorf("healed file does not decode: %v", err)
	}
}

func TestStoreNoInjectorNoMangle(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	s.Put(testKey(2), testTrace(2, 100))
	b, err := os.ReadFile(filepath.Join(dir, testKey(2).Hash()+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFile(b); err != nil {
		t.Errorf("clean write does not decode: %v", err)
	}
}
