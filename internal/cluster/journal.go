package cluster

import (
	"bioperf5/internal/harness"
	"bioperf5/internal/journal"
)

// Journal is the coordinator's crash-safe completion record
// (internal/journal has the format and the torn-tail rules).  Unlike
// the scheduler's journal, which marks hashes done and relies on the
// local disk cache for the bytes, the coordinator has no local cache —
// results live on the workers and the shared hub — so its journal
// carries the full per-cell stats.  A resumed sweep replays completed
// cells straight from this file and dispatches only the remainder.
type Journal = journal.Log[Record]

// Record is one completed cell: its content key and the stats the
// manifest needs to reproduce it without re-dispatching.
type Record struct {
	Key      string              `json:"key"`
	Status   string              `json:"status"`
	TraceHit bool                `json:"trace_hit,omitempty"`
	Stats    harness.KernelStats `json:"stats"`
}

// OpenJournal opens (creating if necessary) the journal at path and
// replays its records.  Only ok cells are durable — a failed cell must
// be retried by the next run, not remembered.
func OpenJournal(path string) (*Journal, error) {
	return journal.Open(path, func(r Record) string {
		if r.Status != harness.StatusOK {
			return ""
		}
		return r.Key
	})
}
