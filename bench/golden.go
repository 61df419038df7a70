package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bioperf5/internal/harness"
	"bioperf5/internal/sched"
)

// goldenJSON pins the simulated statistics of every cell the workloads
// produce at the default seed, so a change that makes the simulator
// faster cannot silently change what it simulates.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	Seed  int64             `json:"seed"`
	Scale int               `json:"scale"`
	Cells map[string]string `json:"cells"` // cell ID -> SHA-256 of the canonical-JSON cpu.Report
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.Seed != defaultSeed || g.Scale != scale {
		return g, fmt.Errorf("bench/golden.json is for seed %d scale %d, the bench runs seed %d scale %d",
			g.Seed, g.Scale, defaultSeed, scale)
	}
	return g, nil
}

// checkGolden fails one operation per cell whose digest differs from
// the committed one.  Every cell a workload produces is in the file.
func (l *ledger) checkGolden() error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for id, got := range l.digests() {
		want, ok := g.Cells[id]
		switch {
		case !ok:
			return fmt.Errorf("bench/golden.json has no cell %s: regenerate it with `go run ./bench golden -write`", id)
		case want != got:
			l.fail("%s: digest %.12s differs from golden %.12s", id, got, want)
		default:
			l.ok(1)
		}
	}
	return nil
}

// cmdGolden recomputes every golden digest on the coupled path,
// requires the replay path to agree, and compares with or rewrites
// golden.json.
func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	write := fs.Bool("write", false, "rewrite bench/golden.json instead of comparing with it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led := newLedger()
	for _, pred := range []string{predTournament, predGshare} {
		for _, c := range gridCells(pred) {
			rep, err := coupled(c, defaultSeed)
			if err != nil {
				return fmt.Errorf("%s: %w", c.ID(), err)
			}
			led.see(c, "coupled", rep)
		}
		eng := sched.New(sched.Options{Workers: procs()})
		m, err := harness.RunSweep(sweepSpec(defaultSeed, pred, harness.Config{Engine: eng}))
		eng.Close()
		if err != nil {
			return err
		}
		led.manifest("replayed", m)
	}
	if led.failed > 0 {
		return fmt.Errorf("the coupled and replay paths disagree: %s", led.firstErr)
	}
	g := golden{Seed: defaultSeed, Scale: scale, Cells: led.digests()}
	if !*write {
		if err := led.checkGolden(); err != nil {
			return err
		}
		if led.failed > 0 {
			return fmt.Errorf("%d of %d cells differ from bench/golden.json; first: %s", led.failed, len(g.Cells), led.firstErr)
		}
		fmt.Printf("bench/golden.json: all %d cells match\n", len(g.Cells))
		return nil
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join("bench", "golden.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d cells\n", path, len(g.Cells))
	return nil
}
