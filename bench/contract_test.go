package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// BENCHMARK.json and the tables the bench emits from must declare the
// same workloads and the same metrics, with the same units, directions
// and bounds.
func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var defs []workloadDef
	for _, w := range workloads {
		defs = append(defs, w.workloadDef)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(decl.Workloads, defs) {
		t.Errorf("workloads differ:\nBENCHMARK.json %+v\ncode           %+v", decl.Workloads, defs)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", decl.PerLayer, perLayer)
	}
	if want := []string{"go", "run", "./bench", "run"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths = %v, want %v", decl.Paths, want)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// What a run measures and what is declared must be the same set of
// names, or pack refuses to print a result.
func TestEveryDeclaredMetricIsEmittedAndViceVersa(t *testing.T) {
	e2e := endToEndMetrics(measurement{
		setupS:  []float64{1, 2, 3},
		samples: []sample{{ms: 2, insns: 10}, {ms: 4, insns: 10}},
		wallS:   1, mallocs: 7,
	})
	if _, err := pack(endToEnd, e2e); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if e2e["setup_s"] != 2 || e2e["op_ms_p50"] != 2 || e2e["op_ms_p90"] != 4 || e2e["sim_mips"] != 20e-6 || e2e["allocs_per_op"] != 3.5 {
		t.Errorf("end-to-end metrics = %v", e2e)
	}
	layers := layerMetrics(layerMeasurement{})
	if _, err := pack(perLayer, layers); err != nil {
		t.Errorf("per-layer: %v", err)
	}

	delete(layers, "cpu.replay_mips")
	if _, err := pack(perLayer, layers); err == nil {
		t.Error("pack accepted a run that did not measure cpu.replay_mips")
	}
	e2e["undeclared"] = 1
	if _, err := pack(endToEnd, e2e); err == nil {
		t.Error("pack accepted a metric that is not declared")
	}
}

func TestRequestStreamIsFixedBySeedAndClient(t *testing.T) {
	draw := func(seed int64, client int) []request {
		st := newStream(seed, client, 64)
		out := make([]request, 2000)
		for i := range out {
			out[i] = st.next()
		}
		return out
	}
	a := draw(7, 0)
	if !reflect.DeepEqual(a, draw(7, 0)) {
		t.Error("the same seed and client drew two different streams")
	}
	if reflect.DeepEqual(a, draw(8, 0)) {
		t.Error("seeds 7 and 8 drew the same stream")
	}
	if reflect.DeepEqual(a, draw(7, 1)) {
		t.Error("clients 0 and 1 drew the same stream")
	}
	batches := 0
	for _, r := range a {
		if r.batch {
			batches++
			if r.index < 0 || r.index >= batchPoolSize {
				t.Fatalf("batch index %d outside the pool", r.index)
			}
		} else if r.index < 0 || r.index >= 64 {
			t.Fatalf("cell index %d outside the hot set", r.index)
		}
	}
	if batches < 300 || batches > 500 {
		t.Errorf("%d of 2000 requests are batches, want about 20%%", batches)
	}

	pool := batchPool(7, 64)
	if !reflect.DeepEqual(pool, batchPool(7, 64)) {
		t.Error("the same seed drew two different batch pools")
	}
	if reflect.DeepEqual(pool, batchPool(8, 64)) {
		t.Error("seeds 7 and 8 drew the same batch pool")
	}
	for _, b := range pool {
		distinct := map[int]bool{}
		for _, i := range b {
			distinct[i] = true
		}
		if len(b) != batchCells || len(distinct) != batchCells {
			t.Fatalf("batch %v does not name %d distinct cells", b, batchCells)
		}
	}
}

// The cell sets are what golden.json, the sweeps and the hot set are
// built from; their sizes are part of the workloads' definitions.
func TestCellSets(t *testing.T) {
	if n := len(baselineCells()); n != 8 {
		t.Errorf("%d baseline cells, want 8", n)
	}
	if n := len(gridCells(predTournament)); n != gridPoints {
		t.Errorf("%d grid cells, want %d", n, gridPoints)
	}
	if n := len(hotCells()); n != 64 {
		t.Errorf("%d hot cells, want 64", n)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{predTournament, predGshare} {
		for _, c := range gridCells(pred) {
			if len(g.Cells[c.ID()]) != 64 {
				t.Errorf("golden.json has no SHA-256 for %s", c.ID())
			}
		}
	}
	if len(g.Cells) != 2*gridPoints {
		t.Errorf("golden.json has %d cells, want %d", len(g.Cells), 2*gridPoints)
	}
}
