// Package journal reads the append-only JSONL completion journals that
// earlier binaries wrote into their state directories, one record per
// line.  Nothing in this tree appends to one: a state directory is a
// result cache, local or fleet.  A journal.jsonl that a parent binary
// left there is still read through Scan, so both readers agree on which
// lines count: `bioperf5 fsck` repairs it with Rewrite, and a
// coordinator answers cells from its records without writing it.
//
// A record cut short by a kill is a torn tail.  Scan never keeps it,
// and Rewrite leaves every kept line terminated.
package journal

import (
	"bytes"
	"encoding/json"
	"io"
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
