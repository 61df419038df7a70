// Package cas is the one place that knows how a verified blob lives on
// disk and on the wire.  A blob is opaque bytes filed under the hex
// SHA-256 of the key it answers; what the bytes mean belongs to the
// payload's owner, which describes itself with a Kind (sched.EntryKind
// for result entries, trace.FileKind for captured traces).  From a Kind
// this package derives the directory tier (Dir), the best-effort client
// of an upstream hub (Client), the hub's GET/PUT endpoints (Register)
// and what `bioperf5 fsck` scans for.
//
// Nothing read from disk or the network is trusted until its owner's
// codec has decoded it against the address it was asked for: Dir.Load
// and Client.Get hand the bytes to a decode function and treat its
// refusal as the one policy each tier has — a corrupt local blob is
// counted, removed and recomputed; a corrupt upstream blob is counted
// as an error and is a miss.  In front of both tiers each owner keeps a
// Memo (single flight, then a byte-budget LRU); the typed codecs stay
// with their owners.  DESIGN §16 "Storage" has the layout and the wire
// protocol.
package cas

import (
	"container/list"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bioperf5/internal/telemetry"
)

// ErrNoDir is returned by writes to an absent directory tier: a hub
// without -cache-dir cannot keep what it is sent (503, not 400).
var ErrNoDir = errors.New("cas: no cache directory configured")

// ErrWrongKey marks a blob that is sound in itself but answers a
// different key than the address it sits at.  Kind.Verify wraps it so
// fsck can tell a misfiled blob from a damaged one.
var ErrWrongKey = errors.New("blob does not answer its address")

// Kind describes one payload family.  Everything that differs between
// result entries and traces outside their codecs is a field here.
type Kind struct {
	Route       string        // URL segment: /v1/<Route>/{key}
	Ext         string        // file extension, with the dot
	ContentType string        // of a GET response and a PUT request
	MaxBytes    int64         // size cap of one blob, client and server
	Timeout     time.Duration // bound on one upstream round trip
	// Verify reports whether b is a well-formed blob of this kind that
	// answers hash.  It is the untyped face of the owner's codec, for
	// callers that move or check bytes without needing the value.
	Verify func(hash string, b []byte) error
}

// ValidKey reports whether s is a content address: 64 lower-case hex
// digits and nothing else, so a key can never traverse paths or name a
// foreign file.
func ValidKey(s string) bool {
	return len(s) == 64 && strings.Trim(s, "0123456789abcdef") == ""
}

// WriteFileAtomic lands what write produces at path so that a crash
// leaves either the old state or the complete new file, never a torn
// one: temp file `<name>.tmp*` beside it, write, fsync, rename,
// directory fsync.  A write that fails is cleaned up; one that never
// returns (the process died) leaves only the temp file, which no reader
// opens and fsck quarantines as stale.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		// Flush the payload before the rename publishes it, so the file
		// can never be durable by name but empty by content.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename in it survives a crash.
// Best-effort: some filesystems reject directory fsync, and a lost
// rename only costs a recompute.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Dir is the directory tier of one kind: one file per blob, named
// <hash><Ext>.  A nil *Dir is the absent tier — reads miss and writes
// return ErrNoDir — so owners need no "is there a disk" branches.
type Dir struct {
	kind            Kind
	path            string
	writes, corrupt *telemetry.Counter
}

// NewDir returns the tier under path, or nil when path is empty.  The
// counters are the owner's existing disk-write and corrupt-blob metrics.
func NewDir(k Kind, path string, writes, corrupt *telemetry.Counter) *Dir {
	if path == "" {
		return nil
	}
	return &Dir{kind: k, path: path, writes: writes, corrupt: corrupt}
}

func (d *Dir) file(hash string) string { return filepath.Join(d.path, hash+d.kind.Ext) }

// Load reads the blob at hash and hands it to decode, the owner's codec
// checking it against the key it wants.  It reports a verified hit.  A
// blob decode refuses is corrupt: counted, removed (its bytes are worth
// nothing, and the recompute's write heals the address), and a miss.
func (d *Dir) Load(hash string, decode func(b []byte) error) bool {
	if d == nil {
		return false
	}
	b, err := os.ReadFile(d.file(hash))
	if err != nil {
		return false
	}
	if err := decode(b); err != nil {
		d.corrupt.Add(1)
		os.Remove(d.file(hash))
		return false
	}
	return true
}

// Entry returns the verified bytes at hash — what a hub serves.
func (d *Dir) Entry(hash string) (b []byte, ok bool) {
	ok = d.Load(hash, func(got []byte) error {
		b = got
		return d.kind.Verify(hash, got)
	})
	return b, ok
}

// Write files b, which the caller has verified or just encoded, at hash.
func (d *Dir) Write(hash string, b []byte) error {
	return d.Stream(hash, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// Stream files at hash what write encodes straight into the file, so a
// large blob is not first assembled in memory.
func (d *Dir) Stream(hash string, write func(io.Writer) error) error {
	if d == nil {
		return ErrNoDir
	}
	if err := WriteFileAtomic(d.file(hash), write); err != nil {
		return err
	}
	d.writes.Add(1)
	return nil
}

// Install verifies body as a blob answering hash and files it — the
// write path behind a hub's PUT.
func (d *Dir) Install(hash string, body []byte) error {
	if d == nil {
		return ErrNoDir
	}
	if err := d.kind.Verify(hash, body); err != nil {
		return err
	}
	return d.Write(hash, body)
}

// Tear truncates the blob at hash to half its size in place: the damage
// a torn write or bit rot would leave at a final address, which the
// write discipline cannot produce by itself.  Only the fault injector's
// SiteStore and SiteTrace hooks call it; the next Load must detect it.
func (d *Dir) Tear(hash string) error {
	fi, err := os.Stat(d.file(hash))
	if err != nil {
		return err
	}
	return os.Truncate(d.file(hash), fi.Size()/2)
}

// Sync fsyncs the directory; owners call it once on shutdown.
func (d *Dir) Sync() {
	if d != nil {
		syncDir(d.path)
	}
}

// Memo is the in-memory tier in front of an owner's Dir and Client: a
// single-flight join, so concurrent callers for one key share one fill,
// then an LRU of filled values under a byte budget.  Only successes are
// kept; a failed fill is forgotten, so the next Join fills again.
type Memo[V any] struct {
	budget    int64
	size      func(V) int64 // run once per value, outside the lock: it may decode
	evictions *telemetry.Counter

	mu      sync.Mutex
	entries map[string]*list.Element // Value is a resident *Flight[V]
	lru     *list.List               // front = most recently used
	bytes   int64
	flights map[string]*Flight[V] // fills in progress
}

// Flight is one fill of a key, ended by its lead with Memo.Finish and
// awaited by every caller that joined it.
type Flight[V any] struct {
	done chan struct{}
	key  string
	v    V
	err  error
	size int64
}

// Wait blocks until the flight is finished and returns its outcome.
func (f *Flight[V]) Wait() (V, error) {
	<-f.done
	return f.v, f.err
}

// NewMemo returns a memo evicting least recently used values past budget
// bytes (counted in evictions), never the newest: that would livelock a fill.
func NewMemo[V any](budget int64, size func(V) int64, evictions *telemetry.Counter) *Memo[V] {
	return &Memo[V]{budget: budget, size: size, evictions: evictions,
		entries: make(map[string]*list.Element), lru: list.New(), flights: make(map[string]*Flight[V])}
}

// Join returns the value resident at key (fl nil), or the key's fill:
// a new one this caller leads and must Finish, or one already running.
func (m *Memo[V]) Join(key string) (v V, fl *Flight[V], lead bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*Flight[V]).v, nil, false
	}
	if fl = m.flights[key]; fl == nil {
		fl = &Flight[V]{done: make(chan struct{}), key: key}
		m.flights[key] = fl
		lead = true
	}
	return v, fl, lead
}

// Get returns the value resident at key without joining a fill.
func (m *Memo[V]) Get(key string) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if ok {
		m.lru.MoveToFront(el)
		v = el.Value.(*Flight[V]).v
	}
	return v, ok
}

// Finish ends a flight its caller leads: joiners' Waits return (v, err),
// and a nil err makes v resident under the flight's key.
func (m *Memo[V]) Finish(fl *Flight[V], v V, err error) {
	fl.v, fl.err = v, err
	if err == nil {
		m.Put(fl.key, v)
	}
	m.mu.Lock()
	delete(m.flights, fl.key)
	m.mu.Unlock()
	close(fl.done)
}

// Put makes v resident under key, replacing any value there.
func (m *Memo[V]) Put(key string, v V) {
	e := &Flight[V]{key: key, v: v, size: m.size(v)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.bytes -= el.Value.(*Flight[V]).size
		m.lru.Remove(el)
	}
	m.entries[key] = m.lru.PushFront(e)
	m.bytes += e.size
	for m.bytes > m.budget && m.lru.Len() > 1 {
		old := m.lru.Remove(m.lru.Back()).(*Flight[V])
		delete(m.entries, old.key)
		m.bytes -= old.size
		m.evictions.Add(1)
	}
}

// Usage returns how many values are resident and their total size.
func (m *Memo[V]) Usage() (n int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len(), m.bytes
}
