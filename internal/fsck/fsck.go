// Package fsck scrubs bioperf5's durable state — result caches, trace
// stores, and the completion journals earlier binaries left — for the
// damage the fault injector (or a real crash, torn write, or bit flip)
// can leave behind.
//
// The scrubber never deletes anything.  A file that fails verification
// is moved into a `quarantine/` sidecar directory under the scanned
// root, where a human (or a test) can inspect it; the engines treat
// the resulting hole as a cache miss and recompute.  Journals are the
// one thing repaired in place: valid lines are kept, torn tails and
// corrupt lines are dropped, and the original bytes are preserved in
// quarantine first.
//
// Every durable format is self-verifying, so the scrubber needs no
// engine and no sweep spec — just the directory.  What it looks for is
// derived from the storage layer, not listed here a second time:
//
//   - <64-hex><Ext> for every blob kind in `kinds` (result entries,
//     trace files): the kind's Verify must accept the bytes as answering
//     the address in the filename
//   - *.jsonl         append-only journal: journal.Scan must find no
//     corrupt line, torn tail or missing final newline
//   - *.tmp*          a cas.WriteFileAtomic that never reached its
//     rename: stale, quarantined
//
// Anything else (manifests, span logs the scrubber does not recognize,
// README files) is left untouched.
package fsck

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bioperf5/internal/cas"
	"bioperf5/internal/journal"
	"bioperf5/internal/sched"
	"bioperf5/internal/trace"
)

// kinds is every blob family a state directory can hold, with the
// finding a damaged and a misfiled blob of it is reported as.
var kinds = []struct {
	cas.Kind
	corrupt, wrongKey string
}{
	{sched.EntryKind, KindCacheCorrupt, KindCacheCorrupt},
	{trace.FileKind, KindTraceCorrupt, KindTraceKeyMismatch},
}

// Schema versions the JSON report shape.
const Schema = 1

// QuarantineDirName is the sidecar directory corrupt files are moved
// into, created under each scanned root.  The scrubber never descends
// into it, so re-running fsck is idempotent.
const QuarantineDirName = "quarantine"

// Finding kinds.
const (
	KindCacheCorrupt     = "cache-entry-corrupt"  // .json entry failed verification
	KindTraceCorrupt     = "trace-corrupt"        // .trace failed structural/checksum verification
	KindTraceKeyMismatch = "trace-key-mismatch"   // .trace verified but answers a different key
	KindJournalTornTail  = "journal-torn-tail"    // .jsonl ends mid-record
	KindJournalBadLine   = "journal-corrupt-line" // .jsonl holds a complete but unparseable line
	KindStaleTemp        = "stale-temp"           // orphaned .tmp* file from an interrupted write
)

// Finding is one damaged file (or, for journals, one damaged region).
type Finding struct {
	Path          string `json:"path"`
	Kind          string `json:"kind"`
	Detail        string `json:"detail"`
	QuarantinedTo string `json:"quarantined_to,omitempty"`
	Repaired      bool   `json:"repaired,omitempty"`
}

// Report is the machine-readable scrub result `bioperf5 fsck` prints.
type Report struct {
	Schema      int       `json:"schema"`
	Dirs        []string  `json:"dirs"`
	Scanned     int       `json:"scanned"`
	OK          int       `json:"ok"`
	Damaged     int       `json:"damaged"`
	Quarantined int       `json:"quarantined"`
	Repaired    int       `json:"repaired"`
	Findings    []Finding `json:"findings,omitempty"`
}

// Run scans every directory in dirs (result-cache, trace-store, and
// resume directories all work; they share the same file formats),
// quarantines what fails verification, repairs torn journals, and
// returns the report.  At least one directory is required.  The error
// covers operational failures (unreadable roots, failed moves) —
// finding damage is not an error; callers check Report.Damaged.
func Run(dirs []string) (*Report, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("fsck: no directories to scan")
	}
	s := &scrubber{rep: &Report{Schema: Schema, Dirs: dirs}}
	for _, dir := range dirs {
		if err := s.scanDir(dir); err != nil {
			return nil, err
		}
	}
	return s.rep, nil
}

type scrubber struct {
	rep  *Report
	root string // the Dirs entry currently being walked; quarantine lands under it
}

func (s *scrubber) scanDir(root string) error {
	if fi, err := os.Stat(root); err != nil {
		return fmt.Errorf("fsck: %w", err)
	} else if !fi.IsDir() {
		return fmt.Errorf("fsck: %s is not a directory", root)
	}
	s.root = root
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		if d.IsDir() {
			if d.Name() == QuarantineDirName {
				return filepath.SkipDir
			}
			return nil
		}
		return s.scanFile(path, d.Name())
	})
}

// scanFile classifies one file by name and runs the matching verifier.
// Unrecognized files are ignored without counting as scanned.
func (s *scrubber) scanFile(path, name string) error {
	ext := filepath.Ext(name)
	stem := strings.TrimSuffix(name, ext)
	switch {
	case strings.Contains(name, ".tmp"):
		s.rep.Scanned++
		return s.condemn(path, KindStaleTemp, "interrupted write never renamed into place")
	case ext == ".jsonl":
		s.rep.Scanned++
		return s.scrubJournal(path)
	case !cas.ValidKey(stem):
		return nil
	}
	for _, k := range kinds {
		if ext != k.Ext {
			continue
		}
		s.rep.Scanned++
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		switch err := k.Verify(stem, b); {
		case errors.Is(err, cas.ErrWrongKey):
			return s.condemn(path, k.wrongKey, err.Error())
		case err != nil:
			return s.condemn(path, k.corrupt, err.Error())
		}
		s.rep.OK++
	}
	return nil
}

// condemn quarantines a file that failed verification and records the
// finding.
func (s *scrubber) condemn(path, kind, detail string) error {
	dst, err := s.quarantinePath(path)
	if err != nil {
		return err
	}
	if err := os.Rename(path, dst); err != nil {
		return fmt.Errorf("fsck: quarantine %s: %w", path, err)
	}
	s.rep.Quarantined++
	s.finding(Finding{Path: path, Kind: kind, Detail: detail, QuarantinedTo: dst})
	return nil
}

// scrubJournal validates an append-only JSONL log with the scanner a
// coordinator reads a parent's journal with.  Valid lines are kept; a
// torn tail and complete-but-corrupt lines are dropped.  When anything
// is dropped, the original bytes are preserved in quarantine and the
// cleaned log is written back atomically, so a concurrent crash can
// never make things worse.
func (s *scrubber) scrubJournal(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	lines := journal.Scan(b)
	if !lines.Damaged() {
		s.rep.OK++
		return nil
	}
	// Preserve the original before rewriting whenever bytes are about
	// to be dropped.
	var dst string
	if lines.Corrupt > 0 || lines.TornTail {
		if dst, err = s.quarantinePath(path); err != nil {
			return err
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			return fmt.Errorf("fsck: quarantine %s: %w", path, err)
		}
		s.rep.Quarantined++
	}
	if err := cas.WriteFileAtomic(path, lines.Rewrite); err != nil {
		return fmt.Errorf("fsck: repair %s: %w", path, err)
	}
	s.rep.Repaired++
	if lines.TornTail {
		s.finding(Finding{Path: path, Kind: KindJournalTornTail,
			Detail:        "torn final record truncated at last complete line",
			QuarantinedTo: dst, Repaired: true})
	}
	if lines.MissingNewline {
		s.finding(Finding{Path: path, Kind: KindJournalTornTail,
			Detail: "final record unterminated; newline restored", Repaired: true})
	}
	if lines.Corrupt > 0 {
		s.finding(Finding{Path: path, Kind: KindJournalBadLine,
			Detail:        fmt.Sprintf("%d unparseable line(s) dropped", lines.Corrupt),
			QuarantinedTo: dst, Repaired: true})
	}
	return nil
}

func (s *scrubber) finding(f Finding) {
	s.rep.Damaged++
	s.rep.Findings = append(s.rep.Findings, f)
}

// quarantinePath picks a non-colliding destination under the current
// root's quarantine directory.
func (s *scrubber) quarantinePath(path string) (string, error) {
	qdir := filepath.Join(s.root, QuarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("fsck: %w", err)
	}
	base := filepath.Join(qdir, filepath.Base(path))
	dst := base
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return dst, nil
		}
		dst = base + "." + strconv.Itoa(i)
	}
}
