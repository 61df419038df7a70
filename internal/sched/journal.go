package sched

import "bioperf5/internal/journal"

// Journal is the sweep's crash-safe completion record: one line per
// completed cell hash (internal/journal has the format and the
// torn-tail rules).  It lives next to the disk cache; the cache holds
// the results, the journal is the durable statement of which cells are
// done.  After a crash, re-running the same sweep against the same
// directory consults both and re-simulates only unfinished cells.
type Journal = journal.Log[journalRecord]

// journalRecord is one JSONL line.
type journalRecord struct {
	Hash   string `json:"hash"`
	Status string `json:"status"`
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays its records.  Any line carrying a hash counts as done.
func OpenJournal(path string) (*Journal, error) {
	return journal.Open(path, func(r journalRecord) string { return r.Hash })
}
