package trace

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// traceHub is a minimal in-memory /v1/traces peer.
func traceHub(t *testing.T) (*httptest.Server, *sync.Map) {
	t.Helper()
	var store sync.Map
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/traces/{key}", func(w http.ResponseWriter, r *http.Request) {
		if b, ok := store.Load(r.PathValue("key")); ok {
			w.Write(b.([]byte))
			return
		}
		http.Error(w, "miss", http.StatusNotFound)
	})
	mux.HandleFunc("PUT /v1/traces/{key}", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		store.Store(r.PathValue("key"), b)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &store
}

// TestRemoteTierShared: one store's capture is another store's replay.
func TestRemoteTierShared(t *testing.T) {
	hub, store := traceHub(t)

	sA := NewStore(StoreOptions{Upstream: hub.URL})
	if _, hit, err := sA.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil || hit {
		t.Fatalf("first capture = (hit=%v, %v)", hit, err)
	}
	if st := sA.Stats(); st.RemotePuts != 1 {
		t.Fatalf("stats = %+v, want the capture pushed upstream", st)
	}
	if _, ok := store.Load(testKey(1).Hash()); !ok {
		t.Fatal("push left nothing on the hub")
	}

	sB := NewStore(StoreOptions{Upstream: hub.URL})
	tr, hit, err := sB.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return nil, errors.New("should have been a remote hit")
	})
	if err != nil || !hit || tr == nil {
		t.Fatalf("remote fill = (%v, hit=%v, %v)", tr, hit, err)
	}
	if st := sB.Stats(); st.RemoteHits != 1 || st.Captures != 0 {
		t.Errorf("stats = %+v, want a remote hit and no capture", st)
	}

	// The capture-free Get path reaches the remote tier too.
	sC := NewStore(StoreOptions{Upstream: hub.URL})
	if _, ok := sC.Get(testKey(1)); !ok {
		t.Error("Get missed a trace the hub holds")
	}
}

// TestRemoteTierRejectsCorrupt: a damaged upstream trace is detected
// and captured fresh, never replayed.
func TestRemoteTierRejectsCorrupt(t *testing.T) {
	hub, store := traceHub(t)
	b, err := testTrace(1, 100).EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff // flip a payload byte; the checksum must catch it
	store.Store(testKey(1).Hash(), b)

	var captures atomic.Int64
	s := NewStore(StoreOptions{Upstream: hub.URL})
	if _, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(1, 100), nil
	}); err != nil || hit {
		t.Fatalf("fill over corrupt upstream = (hit=%v, %v)", hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("corrupt upstream trace replayed without recapture")
	}
}

// TestRemoteTierRejectsWrongKey: a sound trace parked at the wrong
// address must not answer the key that address names.
func TestRemoteTierRejectsWrongKey(t *testing.T) {
	hub, store := traceHub(t)
	b, err := testTrace(1, 100).EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	store.Store(testKey(2).Hash(), b)

	var captures atomic.Int64
	s := NewStore(StoreOptions{Upstream: hub.URL})
	if _, hit, err := s.GetOrCapture(context.Background(), testKey(2), func() (*Trace, error) {
		captures.Add(1)
		return testTrace(2, 100), nil
	}); err != nil || hit {
		t.Fatalf("fill over mismatched upstream = (hit=%v, %v)", hit, err)
	}
	if captures.Load() != 1 {
		t.Errorf("mismatched trace replayed without recapture")
	}
}

// TestRemoteTierUnreachableDegrades: a dead hub degrades to local
// capture.
func TestRemoteTierUnreachableDegrades(t *testing.T) {
	s := NewStore(StoreOptions{Upstream: "http://127.0.0.1:1"})
	tr, hit, err := s.GetOrCapture(context.Background(), testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	})
	if err != nil || hit || tr == nil {
		t.Fatalf("fill with dead hub = (%v, hit=%v, %v)", tr, hit, err)
	}
}

// TestRemoteTierFetchBoundByContext: like a result fetch, a trace fetch
// belongs to the submission that asked for it — a cancelled one does not
// wait on the hub, it degrades to a local capture.
func TestRemoteTierFetchBoundByContext(t *testing.T) {
	hub, store := traceHub(t)
	b, err := testTrace(1, 100).EncodeFile()
	if err != nil {
		t.Fatal(err)
	}
	store.Store(testKey(1).Hash(), b)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewStore(StoreOptions{Upstream: hub.URL})
	if _, hit, err := s.GetOrCapture(ctx, testKey(1), func() (*Trace, error) {
		return testTrace(1, 100), nil
	}); err != nil || hit {
		t.Fatalf("fill under a cancelled context = (hit=%v, %v), want a capture", hit, err)
	}
	if st := s.Stats(); st.RemoteHits != 0 || st.Captures != 1 {
		t.Errorf("stats = %+v, want no remote hit", st)
	}
}
