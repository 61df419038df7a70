// Package journal is the one crash-safe completion log: append-only
// JSONL, one record per line, fsync'd after every append.  The engine
// (sched) journals which cell hashes are done, the coordinator (cluster)
// journals whole cell results; both are a Log around their own record
// type, and `bioperf5 fsck` repairs either with the same Scan that Open
// replays with.
//
// The log tolerates the crash it exists to survive.  A record cut short
// by a kill is a torn tail: Open never trusts it, and the next Append
// first ends the torn line so its bytes cannot run into a fresh record.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Lines is what Scan makes of a log's bytes.
type Lines struct {
	Good           [][]byte // complete JSON lines, in order, without '\n'
	Corrupt        int      // terminated lines that are not JSON
	TornTail       bool     // the final line is unterminated and not JSON
	MissingNewline bool     // the final line is a whole record lacking only its '\n'
}

// Scan splits a log into its lines and classifies each.  Blank lines
// are dropped silently; they are not damage.
func Scan(b []byte) Lines {
	var l Lines
	for len(b) > 0 {
		line, rest, terminated := bytes.Cut(b, []byte{'\n'})
		b = rest
		switch {
		case json.Valid(line):
			l.Good = append(l.Good, line)
			// The crash hit between a record and its terminator: keep it.
			l.MissingNewline = !terminated
		case !terminated:
			l.TornTail = true
		case len(bytes.TrimSpace(line)) > 0:
			l.Corrupt++
		}
	}
	return l
}

// Damaged reports whether a rewrite would change the log.
func (l Lines) Damaged() bool { return l.Corrupt > 0 || l.TornTail || l.MissingNewline }

// Rewrite writes the log as its good lines, each terminated: what a
// repair leaves, and a fixed point of Scan.
func (l Lines) Rewrite(w io.Writer) error {
	var out []byte
	for _, line := range l.Good {
		out = append(append(out, line...), '\n')
	}
	_, err := w.Write(out)
	return err
}

// Log is an open journal of records of type R.  All methods are safe
// for concurrent use.
type Log[R any] struct {
	key func(R) string

	mu          sync.Mutex
	f           *os.File
	done        map[string]R
	needNewline bool // file ends mid-line; the next append starts with '\n'
}

// Open opens (creating if necessary) the journal at path and replays
// it.  key is the owner's validity rule: it returns the string a record
// is looked up by, or "" for a record that must not be trusted or
// written.  Lines that do not parse as R, and lines key refuses, are
// ignored.
func Open[R any](path string, key func(R) string) (*Log[R], error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	lines := Scan(b)
	l := &Log[R]{key: key, f: f, done: make(map[string]R, len(lines.Good)),
		needNewline: lines.TornTail || lines.MissingNewline}
	for _, line := range lines.Good {
		var rec R
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		if k := key(rec); k != "" {
			l.done[k] = rec
		}
	}
	return l, nil
}

// Lookup returns the record on file under key, if any.
func (l *Log[R]) Lookup(key string) (R, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.done[key]
	return rec, ok
}

// Len returns the number of records on file.
func (l *Log[R]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Append writes one record and fsyncs.  A record the validity rule
// refuses, or whose key is already on file, is a no-op, so replays stay
// idempotent.
func (l *Log[R]) Append(rec R) error {
	k := l.key(rec)
	if k == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[k]; ok {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if l.needNewline {
		b = append([]byte{'\n'}, b...)
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.needNewline = false
	l.done[k] = rec
	return nil
}

// Close releases the file.  The log must not be used afterwards.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
