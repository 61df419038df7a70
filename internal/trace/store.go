package trace

import (
	"container/list"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
)

// DefaultBudget is the in-memory byte budget of a Store when none is
// configured.  A resident trace costs about 9.5 bytes per instruction
// (2 of payload, 4 of heads, 8 per memory op); the scale-1 kernel
// traces measure 1.2-6.8 MB each and 29.6 MB for the paper grid's
// eight, so the default holds about 70 of them — the grid at 8 seeds.
const DefaultBudget = int64(256 << 20)

// StoreOptions configures a Store.  The zero value is usable: default
// byte budget, no disk tier, a private telemetry registry.
type StoreOptions struct {
	// Budget bounds the in-memory tier in bytes; values <= 0 mean
	// DefaultBudget.  Least-recently-used traces are evicted past it
	// (the newest trace is always kept, even when it alone exceeds the
	// budget — evicting it would livelock a capture loop).
	Budget int64
	// Dir, when non-empty, adds a checksummed on-disk tier under that
	// directory so captures survive across processes.  Corrupt files
	// are detected, deleted and recaptured, never trusted.
	Dir string
	// Registry receives the trace.* telemetry counters; nil gets a
	// private registry.
	Registry *telemetry.Registry
	// Upstream, when non-empty, is the base URL of a peer bioperf5
	// server whose /v1/traces endpoint acts as a shared remote tier:
	// probed after a local disk miss, pushed to after a local capture.
	// Best-effort; every downloaded trace is checksum-verified and
	// matched against the requested key before use.
	Upstream string
	// Transport, when non-nil, overrides the remote tier's HTTP
	// transport — the chaos suite plugs its fault injector in here.
	Transport http.RoundTripper
	// Injector, when non-nil, is consulted at fault.SiteTrace after
	// every disk write: a Corrupt decision tears the freshly written
	// file, modelling bit rot the next process must detect and heal.
	Injector fault.Injector
}

// Store is the content-addressed trace cache: an in-memory LRU with a
// byte budget in front of an optional on-disk tier, with single-flight
// capture so concurrent requests for the same trace run one functional
// execution.  All methods are safe for concurrent use.
type Store struct {
	budget int64
	dir    string
	remote *remoteTier
	inj    fault.Injector

	mu       sync.Mutex
	entries  map[string]*list.Element // key hash -> lru element
	lru      *list.List               // front = most recently used
	bytes    int64
	inflight map[string]*flight

	mCaptures, mMemHits, mDiskHits  *telemetry.Counter
	mDiskWrites, mCorrupt, mEvicted *telemetry.Counter
	mFaults                         *telemetry.Counter
	gBytes, gEntries                *telemetry.Gauge
}

type storeEntry struct {
	hash string
	t    *Trace
}

type flight struct {
	done chan struct{}
	t    *Trace
	err  error
}

// NewStore builds a store.
func NewStore(o StoreOptions) *Store {
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{
		budget:   o.Budget,
		dir:      o.Dir,
		inj:      o.Injector,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),

		mFaults:     reg.Counter("trace.faults.injected"),
		mCaptures:   reg.Counter("trace.captures"),
		mMemHits:    reg.Counter("trace.hits.memory"),
		mDiskHits:   reg.Counter("trace.hits.disk"),
		mDiskWrites: reg.Counter("trace.disk.writes"),
		mCorrupt:    reg.Counter("trace.corrupt"),
		mEvicted:    reg.Counter("trace.evictions"),
		gBytes:      reg.Gauge("trace.bytes"),
		gEntries:    reg.Gauge("trace.entries"),
	}
	if o.Upstream != "" {
		s.remote = newRemoteTier(o.Upstream, o.Transport, reg)
	}
	return s
}

// GetOrCapture returns the trace for key, capturing it with the given
// function if no tier has it.  The second return reports a hit: true
// when the trace already existed (in memory, on disk, or captured by a
// concurrent caller this store coalesced with), false when this call
// ran the capture.  A capture error is returned without storing
// anything, so a later call retries.
func (s *Store) GetOrCapture(key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	hash := key.Hash()
	for {
		s.mu.Lock()
		if el, ok := s.entries[hash]; ok {
			s.lru.MoveToFront(el)
			t := el.Value.(*storeEntry).t
			s.mu.Unlock()
			s.mMemHits.Add(1)
			return t, true, nil
		}
		if fl, ok := s.inflight[hash]; ok {
			s.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			return fl.t, true, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.inflight[hash] = fl
		s.mu.Unlock()

		t, hit, err := s.fill(hash, key, capture)
		fl.t, fl.err = t, err
		s.mu.Lock()
		delete(s.inflight, hash)
		s.mu.Unlock()
		close(fl.done)
		return t, hit, err
	}
}

// Get returns the trace for key if some tier has it, without
// capturing.  Used by the explicit replay-only policy.
func (s *Store) Get(key Key) (*Trace, bool) {
	hash := key.Hash()
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		s.lru.MoveToFront(el)
		t := el.Value.(*storeEntry).t
		s.mu.Unlock()
		s.mMemHits.Add(1)
		return t, true
	}
	s.mu.Unlock()
	if t, ok := s.diskLoad(hash, key); ok {
		s.install(hash, t)
		s.mDiskHits.Add(1)
		return t, true
	}
	if s.remote != nil {
		if t, ok := s.remote.load(hash, key); ok {
			s.install(hash, t)
			s.diskWrite(hash, t)
			return t, true
		}
	}
	return nil, false
}

// Put installs a freshly captured trace under key, replacing any
// existing entry (the forced-capture policy uses it).
func (s *Store) Put(key Key, t *Trace) {
	s.install(key.Hash(), t)
	s.diskWrite(key.Hash(), t)
}

// fill resolves a registered single-flight: disk probe, then the
// shared remote tier, then capture (pushing the fresh capture back
// upstream so the rest of the fleet replays it).
func (s *Store) fill(hash string, key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	if t, ok := s.diskLoad(hash, key); ok {
		s.install(hash, t)
		s.mDiskHits.Add(1)
		return t, true, nil
	}
	if s.remote != nil {
		if t, ok := s.remote.load(hash, key); ok {
			s.install(hash, t)
			s.diskWrite(hash, t)
			return t, true, nil
		}
	}
	t, err := capture()
	if err != nil {
		return nil, false, err
	}
	s.mCaptures.Add(1)
	s.install(hash, t)
	s.diskWrite(hash, t)
	if s.remote != nil {
		s.remote.store(hash, t)
	}
	return t, false, nil
}

// install puts a trace into the in-memory tier and evicts past the
// byte budget.
func (s *Store) install(hash string, t *Trace) {
	size := t.SizeBytes() // before the lock: sizing a trace no one has replayed decodes it
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		old := el.Value.(*storeEntry)
		s.bytes -= old.t.SizeBytes()
		old.t = t
		s.lru.MoveToFront(el)
	} else {
		s.entries[hash] = s.lru.PushFront(&storeEntry{hash: hash, t: t})
	}
	s.bytes += size
	var evicted int64
	for s.bytes > s.budget && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*storeEntry)
		s.lru.Remove(el)
		delete(s.entries, e.hash)
		s.bytes -= e.t.SizeBytes()
		evicted++
	}
	s.gBytes.Set(float64(s.bytes))
	s.gEntries.Set(float64(s.lru.Len()))
	s.mu.Unlock()
	if evicted > 0 {
		s.mEvicted.Add(uint64(evicted))
	}
}

// Len returns the number of in-memory traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the in-memory tier's current size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Captures   uint64 `json:"captures"`
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskWrites uint64 `json:"disk_writes"`
	Corrupt    uint64 `json:"corrupt"`
	Evictions  uint64 `json:"evictions"`
	RemoteHits uint64 `json:"remote_hits,omitempty"`
	RemotePuts uint64 `json:"remote_puts,omitempty"`
	Faults     uint64 `json:"faults_injected,omitempty"`
	Bytes      int64  `json:"bytes"`
	Entries    int    `json:"entries"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	var rh, rp uint64
	if s.remote != nil {
		rh, rp = s.remote.mHits.Value(), s.remote.mPuts.Value()
	}
	return Stats{
		Captures:   s.mCaptures.Value(),
		MemoryHits: s.mMemHits.Value(),
		DiskHits:   s.mDiskHits.Value(),
		DiskWrites: s.mDiskWrites.Value(),
		Corrupt:    s.mCorrupt.Value(),
		Evictions:  s.mEvicted.Value(),
		RemoteHits: rh,
		RemotePuts: rp,
		Faults:     s.mFaults.Value(),
		Bytes:      s.Bytes(),
		Entries:    s.Len(),
	}
}

// Entry returns the encoded file form of the trace addressed by hash,
// from the in-memory tier or (verified) from disk — the body
// GET /v1/traces/{key} serves.
func (s *Store) Entry(hash string) ([]byte, bool) {
	s.mu.Lock()
	var t *Trace
	if el, ok := s.entries[hash]; ok {
		s.lru.MoveToFront(el)
		t = el.Value.(*storeEntry).t
	}
	s.mu.Unlock()
	if t != nil {
		b, err := t.EncodeFile()
		if err != nil {
			return nil, false
		}
		s.mMemHits.Add(1)
		return b, true
	}
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	// Serve only what verifies: structural + checksum integrity and a
	// meta that hashes back to the requested address.
	dt, err := DecodeFile(b)
	if err != nil || KeyFromMeta(dt.Meta).Hash() != hash {
		return nil, false
	}
	s.mDiskHits.Add(1)
	return b, true
}

// Install verifies body as an encoded trace file addressed by hash and
// stores it in both local tiers — the write path behind
// PUT /v1/traces/{key}.
func (s *Store) Install(hash string, body []byte) error {
	t, err := DecodeReplayable(body)
	if err != nil {
		return err
	}
	if KeyFromMeta(t.Meta).Hash() != hash {
		return fmt.Errorf("trace: uploaded trace does not answer key %s", hash)
	}
	s.install(hash, t)
	s.diskWrite(hash, t)
	return nil
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".trace")
}

// diskLoad reads and verifies a trace file.  A file that fails the
// checksum, or whose meta does not answer the key, is corrupt: it is
// counted, removed, and the caller captures fresh.
func (s *Store) diskLoad(hash string, key Key) (*Trace, bool) {
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	t, err := DecodeReplayable(b)
	if err != nil || !key.Matches(t.Meta) {
		s.mCorrupt.Add(1)
		os.Remove(s.path(hash))
		return nil, false
	}
	return t, true
}

// diskWrite persists a trace crash-safely: temp file, fsync, rename,
// directory fsync — the same discipline as the scheduler's result
// cache, so a torn write can never sit at the final address.  Failures
// are not errors: the in-memory trace is sound, only the cross-process
// tier misses next time.
func (s *Store) diskWrite(hash string, t *Trace) {
	if s.dir == "" {
		return
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	b, err := t.EncodeFile()
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, hash+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.mDiskWrites.Add(1)
	s.mangle(hash, int64(len(b)))
}

// mangle is the SiteTrace fault hook: when the injector orders a
// Corrupt, the just-written file is torn in half after it landed at
// its final address — exactly the damage the crash-safe write protocol
// cannot produce on its own, so diskLoad's detect-and-recapture path
// and `bioperf5 fsck` get exercised against a real torn file.
func (s *Store) mangle(hash string, size int64) {
	if s.inj == nil {
		return
	}
	if s.inj.Decide(fault.SiteTrace, hash, 0).Kind != fault.Corrupt {
		return
	}
	if err := os.Truncate(s.path(hash), size/2); err != nil {
		return
	}
	s.mFaults.Add(1)
}
