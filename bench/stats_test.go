package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
}

// The tail reported for a timing is the highest ladder percentile that
// still has at least ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {17, 50}, {39, 50}, // p75 of 39 leaves 9 beyond
		{40, 75}, {99, 75}, // p90 of 99 leaves 9 beyond
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {150000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got != 50 && beyond(tc.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which the benchmark's acceptance check uses.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_mips", Unit: "Minsn/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower by 5% of a 10% bound", lower, steady, scale(1.05), verdictWithin},
		{"slower by 20%", lower, steady, scale(1.2), verdictWorse},
		{"faster by 20%", lower, steady, scale(0.8), verdictBetter},
		{"throughput down 20%", higher, steady, scale(0.8), verdictWorse},
		{"throughput up 20%", higher, steady, scale(1.2), verdictBetter},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"noisy but every run better", lower, noisy, scale(0.5), verdictBetter},
		{"per-layer metrics carry no verdict", metricDef{Name: "cpu.replay_mips", Better: "higher"}, steady, scale(0.5), verdictInfo},
		{"an exact count that moved", metricDef{Name: "sim.cycles", Better: "lower"}, []float64{5, 5}, []float64{6, 6}, verdictChanged},
		{"an exact count that held", metricDef{Name: "sim.cycles", Better: "lower"}, []float64{5, 5}, []float64{5, 5}, verdictWithin},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
