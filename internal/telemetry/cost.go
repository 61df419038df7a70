// StageCost: the per-cell "where did the time go" breakdown.  Spans
// answer the question visually (Perfetto) and statistically
// (histograms); StageCost answers it structurally — a small value
// carried with every scheduler result, summed into SweepManifest
// profiles and /v1/cells responses, cheap enough to measure
// unconditionally (a handful of clock reads on the cold path only).
package telemetry

import "sort"

// StageCost is nanoseconds spent in each lifecycle stage of one cell
// (or one seed; costs add).  TotalNS is the stage's own wall time —
// the others are components of it, but need not sum exactly to it
// (scheduling gaps between stages are real time too).
type StageCost struct {
	QueueNS   int64 `json:"queue_ns,omitempty"`
	CompileNS int64 `json:"compile_ns,omitempty"`
	CaptureNS int64 `json:"capture_ns,omitempty"`
	ReplayNS  int64 `json:"replay_ns,omitempty"`
	SimNS     int64 `json:"sim_ns,omitempty"`
	CacheNS   int64 `json:"cache_ns,omitempty"`
	TotalNS   int64 `json:"total_ns,omitempty"`
}

// Add accumulates o into c, field by field.
func (c *StageCost) Add(o StageCost) {
	c.QueueNS += o.QueueNS
	c.CompileNS += o.CompileNS
	c.CaptureNS += o.CaptureNS
	c.ReplayNS += o.ReplayNS
	c.SimNS += o.SimNS
	c.CacheNS += o.CacheNS
	c.TotalNS += o.TotalNS
}

// IsZero reports whether no stage recorded any time.
func (c StageCost) IsZero() bool {
	return c == StageCost{}
}

// Stages returns the component stages as (name, ns) pairs in
// descending ns order, using the package stage taxonomy.  TotalNS is
// not a component and is excluded.
func (c StageCost) Stages() []StageNS {
	out := []StageNS{
		{StageQueue, c.QueueNS},
		{StageCompile, c.CompileNS},
		{StageCapture, c.CaptureNS},
		{StageReplay, c.ReplayNS},
		{StageSim, c.SimNS},
		{StageCacheRead, c.CacheNS},
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].NS > out[j].NS })
	return out
}

// Dominant returns the component stage with the most time, or "" when
// nothing was recorded.
func (c StageCost) Dominant() string {
	s := c.Stages()
	if len(s) == 0 || s[0].NS == 0 {
		return ""
	}
	return s[0].Name
}

// StageNS is one (stage, nanoseconds) pair of a cost breakdown.
type StageNS struct {
	Name string `json:"stage"`
	NS   int64  `json:"ns"`
}
