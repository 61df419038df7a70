package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bioperf5/internal/cas"
	"bioperf5/internal/cpu"
)

// diskEntry is the result-cache blob: one JSON document per job, filed
// under the job's content hash, on disk and on the /v1/cache wire
// alike.  It embeds the full canonical key plus a checksum of the
// result payload, so decodeEntry can verify it with nothing but the
// address it was asked for.
type diskEntry struct {
	Key    Key        `json:"key"`
	SHA256 string     `json:"sha256"` // hex SHA-256 of the canonical result JSON
	Result cpu.Report `json:"result"`
}

// EntryKind describes result-cache entries to internal/cas: the disk
// tier under -cache-dir, the upstream hub's /v1/cache endpoints and
// fsck's scan are all derived from it.
var EntryKind = cas.Kind{
	Route:       "cache",
	Ext:         ".json",
	ContentType: "application/json",
	MaxBytes:    4 << 20, // entries are small JSON documents
	// A slow upstream must never cost more than a fraction of the
	// simulation it might save.
	Timeout: 10 * time.Second,
	Verify: func(hash string, b []byte) error {
		_, err := decodeEntry(b, hash)
		return err
	},
}

func resultSum(rep cpu.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// encodeEntry serializes one cache entry.
func encodeEntry(key Key, rep cpu.Report) ([]byte, error) {
	sum, err := resultSum(rep)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(diskEntry{Key: key, SHA256: sum, Result: rep}, "", "  ")
}

// decodeEntry parses and verifies an entry against the content hash it
// was addressed by: it must parse, its embedded key must hash back to
// the address, and the result must match the stored checksum.  Nothing
// read from disk or the network is trusted past this gate.
func decodeEntry(b []byte, hash string) (diskEntry, error) {
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("sched: cache entry: %w", err)
	}
	kb, err := json.Marshal(e.Key)
	if err != nil {
		return e, fmt.Errorf("sched: cache entry: %w", err)
	}
	sum := sha256.Sum256(kb)
	if hex.EncodeToString(sum[:]) != hash {
		return e, fmt.Errorf("sched: cache entry key does not hash to %s: %w", hash, cas.ErrWrongKey)
	}
	got, err := resultSum(e.Result)
	if err != nil || got != e.SHA256 {
		return e, fmt.Errorf("sched: cache entry result checksum mismatch")
	}
	return e, nil
}

// decodeInto returns the decode step of a tier probe for one job: the
// entry must verify against hash and carry exactly the key asked for.
func decodeInto(rep *cpu.Report, hash string, want Key) func([]byte) error {
	return func(b []byte) error {
		e, err := decodeEntry(b, hash)
		if err != nil {
			return err
		}
		if e.Key != want {
			return cas.ErrWrongKey
		}
		*rep = e.Result
		return nil
	}
}

// LoadResult returns the result d files for the job with content hash
// hash and canonical key, when d holds a verified entry for it.  A
// corrupt entry is counted, removed and a miss, as cas.Dir.Load says.
func LoadResult(d *cas.Dir, hash string, key Key) (cpu.Report, bool) {
	var rep cpu.Report
	ok := d.Load(hash, decodeInto(&rep, hash, key))
	return rep, ok
}

// StoreResult files rep in d as the result entry of (hash, key) and
// returns the entry's bytes, which are also what an upstream hub is
// sent.  Without a directory the bytes come back with cas.ErrNoDir.
func StoreResult(d *cas.Dir, hash string, key Key, rep cpu.Report) ([]byte, error) {
	b, err := encodeEntry(key, rep)
	if err != nil {
		return nil, err
	}
	return b, d.Write(hash, b)
}
