package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bioperf5/internal/branch"
	"bioperf5/internal/core"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/workload"
)

// Cell is the coordinates of one simulation cell as a front door spells
// them: a CLI flag set, a JSON body, a sweep axis or the coordinator's
// wire form.  Canonical resolves every spelling of a point to one Cell,
// and so to one set of sched.Job keys — which is what makes served,
// swept and distributed cells coalesce and manifests byte-identical.
type Cell struct {
	App         string  // application; case is folded
	Variant     string  // predication variant or alias; "" = original
	FXUs        int     // fixed-point units; 0 = the POWER5 baseline's
	BTACEntries int     // 0 = no BTAC
	Scale       int     // workload scale; 0 = 1
	Seeds       []int64 // input seeds; none = {1}
	Predictor   string  // direction-predictor spec; "" = the POWER5-like default
	// Trace is how to run the cell ("" = the door's default), never part
	// of what it is: Key ignores it.  The field list mirrors the wire
	// form, server.CellRequest, so the two convert into each other.
	Trace core.TracePolicy
}

// Stream is the cells of a plan that share traces: one application and
// variant (a plan's cells have its seeds and scale), whose first cell to
// run captures the traces the rest replay.
type Stream struct{ App, Variant string }

// Stream returns the stream c belongs to.
func (c Cell) Stream() Stream { return Stream{c.App, c.Variant} }

// Canonical validates the coordinates and returns their canonical
// form, a fixed point of Canonical.  Errors quote the offending value.
func (c Cell) Canonical() (Cell, error) {
	var err error
	if c.App, err = canonicalApp(c.App); err != nil {
		return c, err
	}
	name := c.Variant
	if strings.TrimSpace(name) == "" {
		name = kernels.Branchy.String()
	}
	v, err := kernels.VariantByName(name)
	if err != nil {
		return c, fmt.Errorf("unknown variant %q", c.Variant)
	}
	c.Variant = v.String()
	if c.FXUs, err = canonicalFXUs(c.FXUs); err != nil {
		return c, err
	}
	if c.BTACEntries, err = canonicalBTAC(c.BTACEntries); err != nil {
		return c, err
	}
	if c.Predictor, err = branch.CanonicalSpec(c.Predictor); err != nil {
		return c, err
	}
	if c.Trace = core.TracePolicy(strings.TrimSpace(string(c.Trace))); c.Trace != "" {
		if c.Trace, err = core.ParseTracePolicy(string(c.Trace)); err != nil {
			return c, err
		}
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("scale %d out of range: want >= 1", c.Scale)
	}
	cfg := Config{Scale: c.Scale, Seeds: c.Seeds}.normalize()
	c.Scale, c.Seeds = cfg.Scale, cfg.Seeds
	return c, checkSeeds(c.Seeds)
}

// canonicalApp resolves an application name case-insensitively.
func canonicalApp(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return "", fmt.Errorf("missing app (one of %s)", strings.Join(workload.Apps(), ", "))
	}
	for _, app := range workload.Apps() {
		if strings.EqualFold(app, name) {
			return app, nil
		}
	}
	return "", fmt.Errorf("unknown app %q (one of %s)", name, strings.Join(workload.Apps(), ", "))
}

func canonicalFXUs(n int) (int, error) {
	if n == 0 {
		n = core.Baseline().CPU.NumFXU
	}
	if n < 1 {
		return n, fmt.Errorf("fxus %d out of range: want >= 1 (0 = the POWER5 baseline)", n)
	}
	return n, nil
}

func canonicalBTAC(n int) (int, error) {
	if n < 0 {
		return n, fmt.Errorf("btac entries %d out of range: want >= 0 (0 = no BTAC)", n)
	}
	return n, nil
}

// checkSeeds is the one seed-list rule: non-negative and distinct.
func checkSeeds(seeds []int64) error {
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		if s < 0 {
			return fmt.Errorf("bad seed \"%d\": seeds must be non-negative", s)
		}
		if seen[s] {
			return fmt.Errorf("bad seed \"%d\": duplicate seed", s)
		}
		seen[s] = true
	}
	return nil
}

// ParseSeeds reads a comma-separated seed list — the spelling of the
// -seeds flags and the ?seeds= query parameter.
func ParseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: want a non-negative integer", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, checkSeeds(seeds)
}

// Setup is the core setup of a canonical cell.
func (c Cell) Setup() core.Setup {
	v, _ := kernels.VariantByName(c.Variant)
	return SetupFor(v, c.FXUs, c.BTACEntries, c.Predictor)
}

// Key is the content hash of a canonical cell — the value a sweep
// manifest, a served response and the coordinator record for it.
func (c Cell) Key() string {
	return Config{Scale: c.Scale, Seeds: c.Seeds}.cellKey(c.App, c.Setup())
}

// jobs composes the scheduler jobs of a cell, one per seed in seed
// order: the only place a sched.Job is built, so what PlanSweep keys is
// what submitCell submits and what a state directory files.  Trace
// policy is execution strategy, not identity; Job.Hash leaves it out.
func (c Config) jobs(app string, s core.Setup) []sched.Job {
	js := make([]sched.Job, len(c.Seeds))
	for i, seed := range c.Seeds {
		js[i] = sched.Job{
			App: app, Variant: s.Variant, CPU: s.CPU,
			Seed: seed, Scale: c.Scale, Trace: c.Trace,
		}
	}
	return js
}

// cellKey derives the content hash of a whole cell from its per-seed
// job hashes.
func (c Config) cellKey(app string, s core.Setup) string {
	h := sha256.New()
	for _, j := range c.jobs(app, s) {
		io.WriteString(h, j.Hash())
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
