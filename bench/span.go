package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the bench made into a layer.  Parent is the
// ID of the span that caused it (0 for a root); spans of one repetition
// of a workload share Rep.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends.  A nil *Recorder
// is the untraced run: Start and End do nothing, so every workload is
// written once and runs traced or not.
type Recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent, rep int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Rep: rep, StartNS: now})
	return id
}

// End closes the span Start returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns how long it took in
// milliseconds; on a nil recorder it only times.
func (r *Recorder) timed(name string, parent, rep int, f func()) float64 {
	sp := r.Start(name, parent, rep)
	defer r.End(sp)
	return timed(f)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover.  Children may overlap
// one another (parallel calls) and may outlive the parent; the covered
// part is the union of their intervals clipped to the parent's.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}
