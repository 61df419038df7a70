package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// exact names the counts that repeat exactly at a fixed seed: any
// change between two reports over the same seeds is flagged.
var exact = map[string]bool{
	"trace.bytes_per_insn": true,
	"sim.instructions":     true,
	"sim.cycles":           true,
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
	verdictChanged    = "CHANGED"
	verdictInfo       = "-"
)

// judge compares the runs of one metric on one workload.  b is worse
// when its median is worse than a's by more than the bound; it is
// better when it is better by more than the distance between a's
// quartiles.  When either side's own spread exceeds the bound the
// medians settle nothing, and the row is unresolved unless every run of
// b reads better than every run of a.  Per-layer metrics carry no bound
// and get no verdict, except the exact counts.
func judge(d metricDef, a, b []float64) string {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	if exact[d.Name] {
		if medA != medB {
			return verdictChanged
		}
		return verdictWithin
	}
	if d.Bound == 0 {
		return verdictInfo
	}
	sign := 1.0 // positive delta: b is worse
	if d.Better == "higher" {
		sign = -1
	}
	delta := sign * (medB - medA) / medA
	if max(spread(a), spread(b)) > d.Bound {
		ascA, ascB := sorted(a), sorted(b)
		if (sign > 0 && ascB[len(ascB)-1] < ascA[0]) || (sign < 0 && ascB[0] > ascA[len(ascA)-1]) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case delta > d.Bound:
		return verdictWorse
	case -delta > spread(a) && delta < 0 && len(a) > 1:
		return verdictBetter
	}
	return verdictWithin
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// series collects one metric's values over a workload's runs.
func series(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// cmdCompare prints one row per workload x metric of two reports
// written by `run -out`, and fails when a row is worse or an exact
// count changed.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: go run ./bench compare A.json B.json")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  commit %.12s  %s  %d cpus\nB: %s  commit %.12s  %s  %d cpus\n",
		args[0], a.Host.Commit, a.Host.CPUModel, a.Host.NProc, args[1], b.Host.Commit, b.Host.CPUModel, b.Host.NProc)
	const row = "%-14s %-32s %-46s %-46s %-26s %6s  %s\n"
	fmt.Printf(row, "workload", "metric", "A median [q1, q3] n spread", "B median [q1, q3] n spread", "B/A (base)", "bound", "verdict")
	cell := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d iqr %.1f%%", q2, q1, q3, len(v), spread(v)*100)
	}
	bad := 0
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := series(a.Workloads[w.Name], d.Name), series(b.Workloads[w.Name], d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				_, medA, _ := quartiles(va)
				_, medB, _ := quartiles(vb)
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%g%%", d.Bound*100)
				}
				verdict := judge(d, va, vb)
				if verdict == verdictWorse || verdict == verdictChanged {
					bad++
				}
				fmt.Printf(row, w.Name, d.Name, cell(va), cell(vb),
					fmt.Sprintf("%.4fx of %.5g %s", ratio(medB, medA), medA, d.Unit), bound, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse than their bound or changed an exact count", bad)
	}
	return nil
}
