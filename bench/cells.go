package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"bioperf5/internal/core"
	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
)

// The paper grid every sweep workload runs: FXU {2,3,4} x BTAC {0,8} x
// {original, combination} x four applications = 48 points.
var (
	gridFXUs     = []int{2, 3, 4}
	gridBTAC     = []int{0, 8}
	gridVariants = []kernels.Variant{kernels.Branchy, kernels.Combination}
)

const (
	gridPoints = 48
	scale      = 1
	// stepLimit bounds one kernel invocation; scale-1 kernels retire
	// well under a million instructions.
	stepLimit = uint64(1) << 30

	predTournament = "tournament"
	predGshare     = "gshare"
)

// cell is one simulation cell: an application kernel, a predication
// variant and a timing configuration.  The input seed is the run's.
type cell struct {
	App       string
	Variant   kernels.Variant
	FXUs      int
	BTAC      int
	Predictor string // predictor kind with default parameters
}

// ID names the cell in golden.json and in error messages.
func (c cell) ID() string {
	return fmt.Sprintf("%s/%s/fxu%d/btac%d/%s", c.App, c.Variant, c.FXUs, c.BTAC, c.Predictor)
}

func (c cell) setup() core.Setup {
	return harness.SetupFor(c.Variant, c.FXUs, c.BTAC, c.Predictor)
}

func (c cell) request(seed int64) server.CellRequest {
	return server.CellRequest{
		App: c.App, Variant: c.Variant.String(), FXUs: c.FXUs, BTACEntries: c.BTAC,
		Predictor: c.Predictor, Scale: scale, Seeds: []int64{seed},
	}
}

func (c cell) job(seed int64) sched.Job {
	return sched.Job{App: c.App, Variant: c.Variant, CPU: c.setup().CPU, Seed: seed, Scale: scale}
}

// apps names the four applications, in the paper's order.
func apps() []string {
	var out []string
	for _, k := range kernels.All() {
		out = append(out, k.App)
	}
	return out
}

// baselineCells are the eight cells of coupled_cells and of the layer
// ladder: each application, original and combination code, on the
// POWER5 baseline.  They are also grid points, so every workload
// produces them and the coupled path can vouch for each.
func baselineCells() []cell {
	var out []cell
	for _, app := range apps() {
		for _, v := range gridVariants {
			out = append(out, cell{app, v, 2, 0, predTournament})
		}
	}
	return out
}

// gridCells is the 48-point paper grid under one predictor.
func gridCells(predictor string) []cell {
	var out []cell
	for _, app := range apps() {
		for _, v := range gridVariants {
			for _, f := range gridFXUs {
				for _, b := range gridBTAC {
					out = append(out, cell{app, v, f, b, predictor})
				}
			}
		}
	}
	return out
}

// hotCells is the 64-cell hot set of serve_hot: the tournament grid
// plus the sixteen 2-FXU gshare cells.
func hotCells() []cell {
	out := gridCells(predTournament)
	for _, c := range gridCells(predGshare) {
		if c.FXUs == 2 {
			out = append(out, c)
		}
	}
	return out
}

// sweepSpec is the paper grid as a harness spec.  The seed picks the
// kernel inputs and the order the applications are swept in.
func sweepSpec(seed int64, predictor string, cfg harness.Config) harness.SweepSpec {
	order := apps()
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cfg.Scale = scale
	cfg.Seeds = []int64{seed}
	return harness.SweepSpec{
		FXUs: gridFXUs, BTACEntries: gridBTAC, Predictors: []string{predictor},
		Variants: gridVariants, Apps: order, Config: cfg,
	}
}

// pointCell recovers the cell a manifest point describes.
func pointCell(p harness.SweepPoint) (cell, error) {
	v, err := kernels.VariantByName(p.Variant)
	if err != nil {
		return cell{}, err
	}
	kind, _, _ := strings.Cut(p.Predictor, ":")
	return cell{p.App, v, p.FXUs, p.BTACEntries, kind}, nil
}

// digest is the SHA-256 of the canonical JSON of a report: the identity
// of a cell's simulated statistics, whatever path computed them.
func digest(rep cpu.Report) string {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a struct of integers always marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ledger checks operations as they complete: every report seen for a
// cell must equal every other report seen for it, from any path.  It is
// safe for concurrent use.
type ledger struct {
	mu        sync.Mutex
	reports   map[cell]cpu.Report
	attempted int
	failed    int
	firstErr  string
}

func newLedger() *ledger { return &ledger{reports: make(map[cell]cpu.Report)} }

// fail counts one failed operation.
func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

// ok counts n operations that need no report check.
func (l *ledger) ok(n int) {
	l.mu.Lock()
	l.attempted += n
	l.mu.Unlock()
}

// see counts one operation that produced rep for c, and fails it when
// an earlier operation produced something else for the same cell.
func (l *ledger) see(c cell, path string, rep cpu.Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	prev, seen := l.reports[c]
	if !seen {
		l.reports[c] = rep
		return
	}
	if prev != rep {
		l.failed++
		if l.firstErr == "" {
			l.firstErr = fmt.Sprintf("%s: %s report differs from the one seen before", c.ID(), path)
		}
	}
}

// manifest checks a sweep manifest: 48 points, all ok, each consistent
// with what was seen before.  It returns the instructions the sweep
// delivered.
func (l *ledger) manifest(path string, m *harness.SweepManifest) (insns uint64) {
	if len(m.Points) != gridPoints {
		l.fail("%s: manifest has %d points, want %d", path, len(m.Points), gridPoints)
		return 0
	}
	for _, p := range m.Points {
		c, err := pointCell(p)
		if err != nil || p.Status != harness.StatusOK {
			l.fail("%s: point %s/%s: status %q %s", path, p.App, p.Variant, p.Status, p.Error)
			continue
		}
		rep := cpu.Report{Counters: p.Stats.Aggregate.Counters, Stalls: p.Stats.Aggregate.Stalls}
		l.see(c, path, rep)
		insns += rep.Counters.Instructions
	}
	return insns
}

// coupled simulates c on the coupled path.
func coupled(c cell, seed int64) (cpu.Report, error) {
	resp, err := core.Simulate(core.Request{
		App: c.App, Variant: c.Variant, Seeds: []int64{seed}, Scale: scale,
		CPU: c.setup().CPU, Trace: core.TraceOff,
	})
	if err != nil {
		return cpu.Report{}, err
	}
	return resp.Aggregate, nil
}

// vouch runs the eight baseline cells on the coupled path, the
// reference every other path must agree with, and checks them against
// whatever the workload produced for the same cells.
func (l *ledger) vouch(seed int64) {
	for _, c := range baselineCells() {
		rep, err := coupled(c, seed)
		if err != nil {
			l.fail("%s: coupled reference: %v", c.ID(), err)
			continue
		}
		l.see(c, "coupled reference", rep)
	}
}

// digests returns the digest of every cell seen.
func (l *ledger) digests() map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]string, len(l.reports))
	for c, rep := range l.reports {
		out[c.ID()] = digest(rep)
	}
	return out
}
