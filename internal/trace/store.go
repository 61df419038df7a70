package trace

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"bioperf5/internal/cas"
	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
)

// FileKind describes encoded trace files to internal/cas: the disk
// tier under <cache-dir>/traces, the upstream hub's /v1/traces endpoints
// and fsck's scan are all derived from it.  A file is its payload plus
// a few hundred bytes, about 7.4 bytes per instruction and 23.2 MB for
// the paper grid's eight scale-1 traces; the cap is the memory tier's
// whole default budget, so no file a store could keep is refused and a
// peer cannot exhaust memory, and the timeout covers such a file on any
// sane link.
var FileKind = cas.Kind{
	Route:       "traces",
	Ext:         ".trace",
	ContentType: "application/octet-stream",
	MaxBytes:    DefaultBudget,
	Timeout:     30 * time.Second,
	Verify: func(hash string, b []byte) error {
		_, err := decodeFor(hash, b)
		return err
	},
}

// decodeFor decodes an encoded trace file that must answer the key
// hashing to hash: DecodeFile's verdict, and a meta that hashes back to
// the address.
func decodeFor(hash string, b []byte) (*Trace, error) {
	t, err := DecodeFile(b)
	if err != nil {
		return nil, err
	}
	if got := KeyFromMeta(t.Meta).Hash(); got != hash {
		return nil, fmt.Errorf("trace: file answers key %s, not %s: %w", got, hash, cas.ErrWrongKey)
	}
	return t, nil
}

// DefaultBudget is the byte budget of a Store's memory tier.  A
// resident trace is its payload, about 7.4 bytes per instruction (4 per
// head, 8 per memory op); the paper grid's eight scale-1 traces take
// 23.2 MB, so the default holds the grid at about 11 seeds.
const DefaultBudget = int64(256 << 20)

// StoreOptions configures a Store.  The zero value is usable: default
// byte budget, no disk tier, a private telemetry registry.
type StoreOptions struct {
	// Dir, when non-empty, adds a checksummed on-disk tier under that
	// directory so captures survive across processes.  Corrupt files
	// are detected, removed and recaptured, never trusted.
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

	budget int64 // bytes of the memory tier; <= 0 means DefaultBudget (tests lower it)
}

// Store is the content-addressed trace cache: a cas.Memo (single-flight
// capture, so concurrent requests for one trace run one functional
// execution, then an LRU under a byte budget) in front of an optional
// on-disk tier.  All methods are safe for concurrent use.
type Store struct {
	mem    *cas.Memo[*Trace]
	disk   *cas.Dir    // nil without a Dir
	remote *cas.Client // nil without an Upstream
	inj    fault.Injector

	mCaptures, mMemHits, mDiskHits  *telemetry.Counter
	mDiskWrites, mCorrupt, mEvicted *telemetry.Counter
	mFaults                         *telemetry.Counter
	gBytes, gEntries                *telemetry.Gauge
}

// NewStore builds a store.
func NewStore(o StoreOptions) *Store {
	if o.budget <= 0 {
		o.budget = DefaultBudget
	}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{
		inj: o.Injector,

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
	s.mem = cas.NewMemo(o.budget, (*Trace).SizeBytes, s.mEvicted)
	s.disk = cas.NewDir(FileKind, o.Dir, s.mDiskWrites, s.mCorrupt)
	s.remote = cas.NewClient(FileKind, o.Upstream, o.Transport, reg, "trace.remote")
	return s
}

// GetOrCapture returns the trace for key, capturing it with the given
// function if no tier has it.  The second return reports a hit: true
// when the trace already existed (in memory, on disk, or captured by a
// concurrent caller this store coalesced with), false when this call
// ran the capture.  A capture error is returned without storing
// anything, so a later call retries.  ctx bounds the upstream round
// trips, not the capture.
func (s *Store) GetOrCapture(ctx context.Context, key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	hash := key.Hash()
	t, fl, lead := s.mem.Join(hash)
	switch {
	case fl == nil:
		s.mMemHits.Add(1)
		return t, true, nil
	case !lead:
		t, err := fl.Wait()
		return t, err == nil, err
	}
	t, hit, err := s.fill(ctx, hash, key, capture)
	s.mem.Finish(fl, t, err)
	s.gauge()
	return t, hit, err
}

// Get returns the trace for key if some tier has it, without
// capturing.
func (s *Store) Get(key Key) (*Trace, bool) {
	hash := key.Hash()
	if t, ok := s.mem.Get(hash); ok {
		s.mMemHits.Add(1)
		return t, true
	}
	// The signature predates the upstream tier and supplies no context;
	// the kind's timeout still bounds the round trip.
	t, ok := s.fetch(context.TODO(), hash, key)
	if ok {
		s.install(hash, t)
	}
	return t, ok
}

// Put installs a trace under key in memory and on disk, replacing any
// existing entry.
func (s *Store) Put(key Key, t *Trace) {
	s.install(key.Hash(), t)
	s.diskWrite(key.Hash(), t.writeFile)
}

// fetch probes the tiers below memory: the directory, then the shared
// hub (written through to the directory so the next process on this
// node does not repeat the round trip).  Each blob is decoded and
// verified once, by the decode both tiers are handed.
func (s *Store) fetch(ctx context.Context, hash string, key Key) (*Trace, bool) {
	var (
		t   *Trace
		raw []byte
	)
	decode := func(b []byte) (err error) {
		if t, err = DecodeFile(b); err == nil && !key.Matches(t.Meta) {
			err = cas.ErrWrongKey
		}
		raw = b
		return err
	}
	if s.disk.Load(hash, decode) {
		s.mDiskHits.Add(1)
	} else if s.remote.Get(ctx, hash, decode) {
		s.diskWrite(hash, encoded(raw))
	} else {
		return nil, false
	}
	return t, true
}

// fill is the memo's fill for one key: the lower tiers, then capture
// (pushing the fresh capture upstream so the rest of the fleet replays
// it).
func (s *Store) fill(ctx context.Context, hash string, key Key, capture func() (*Trace, error)) (*Trace, bool, error) {
	if t, ok := s.fetch(ctx, hash, key); ok {
		return t, true, nil
	}
	t, err := capture()
	if err != nil {
		return nil, false, err
	}
	s.mCaptures.Add(1)
	s.diskWrite(hash, t.writeFile)
	if s.remote != nil {
		if b, err := t.EncodeFile(); err == nil {
			s.remote.Put(ctx, hash, b)
		}
	}
	return t, false, nil
}

// install puts a trace into the memory tier.
func (s *Store) install(hash string, t *Trace) {
	s.mem.Put(hash, t)
	s.gauge()
}

// gauge publishes the memory tier's occupancy.
func (s *Store) gauge() {
	n, b := s.mem.Usage()
	s.gBytes.Set(float64(b))
	s.gEntries.Set(float64(n))
}

// Len returns the number of in-memory traces.
func (s *Store) Len() int {
	n, _ := s.mem.Usage()
	return n
}

// Bytes returns the in-memory tier's current size.
func (s *Store) Bytes() int64 {
	_, b := s.mem.Usage()
	return b
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
	rh, rp, _ := s.remote.Counts()
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
	if t, ok := s.mem.Get(hash); ok {
		b, err := t.EncodeFile()
		if err != nil {
			return nil, false
		}
		s.mMemHits.Add(1)
		return b, true
	}
	b, ok := s.disk.Entry(hash)
	if ok {
		s.mDiskHits.Add(1)
	}
	return b, ok
}

// Install verifies body as an encoded trace file addressed by hash and
// stores it in both local tiers — the write path behind
// PUT /v1/traces/{key}.  A hub without a Dir keeps it in memory only.
func (s *Store) Install(hash string, body []byte) error {
	t, err := decodeFor(hash, body)
	if err != nil {
		return err
	}
	s.install(hash, t)
	s.diskWrite(hash, encoded(body))
	return nil
}

// diskWrite files the trace file write encodes in the directory tier.  Failures are
// not errors: the in-memory trace is sound, only the cross-process tier
// misses next time.  It is also the SiteTrace fault hook: when the
// injector orders a Corrupt, the just-written file is torn after it
// landed at its final address, so Load's detect-and-recapture path and
// `bioperf5 fsck` get exercised against a real torn file.
func (s *Store) diskWrite(hash string, write func(io.Writer) error) {
	if s.disk.Stream(hash, write) != nil || s.inj == nil {
		return
	}
	if s.inj.Decide(fault.SiteTrace, hash, 0).Kind == fault.Corrupt && s.disk.Tear(hash) == nil {
		s.mFaults.Add(1)
	}
}

// encoded is the write of a trace file already encoded.
func encoded(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}
