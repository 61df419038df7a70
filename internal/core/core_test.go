package core

import (
	"math"
	"reflect"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
)

// coupled sums the counters of k's seeds under s on the coupled path.
func coupled(k *kernels.Kernel, s Setup, seeds []int64) (cpu.Counters, error) {
	resp, err := Simulate(Request{App: k.App, Variant: s.Variant, Seeds: seeds, Scale: 1, CPU: s.CPU, Trace: TraceOff})
	if err != nil {
		return cpu.Counters{}, err
	}
	return resp.Aggregate.Counters, nil
}

func TestSetupBuilders(t *testing.T) {
	s := Baseline()
	if s.Variant != kernels.Branchy || s.CPU.UseBTAC || s.CPU.NumFXU != 2 {
		t.Fatalf("baseline = %+v", s)
	}
	s2 := s.WithVariant(kernels.Combination).WithBTAC().WithFXUs(4)
	if s2.Variant != kernels.Combination || !s2.CPU.UseBTAC || s2.CPU.NumFXU != 4 {
		t.Errorf("built setup = %+v", s2)
	}
	// The original is unchanged (value semantics).
	if s.CPU.UseBTAC || s.CPU.NumFXU != 2 {
		t.Error("WithX mutated the receiver")
	}
}

func TestRunKernelAggregates(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	one, err := coupled(k, Baseline(), []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := coupled(k, Baseline(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if two.Instructions <= one.Instructions || two.Cycles <= one.Cycles {
		t.Errorf("aggregation: one=%d instr, two=%d instr", one.Instructions, two.Instructions)
	}
	if _, err := coupled(k, Baseline(), nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

func TestImprovedSetupBeatsBaseline(t *testing.T) {
	// The paper's headline: predication + BTAC + FXUs beats baseline.
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2}
	base, err := coupled(k, Baseline(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	full, err := coupled(k, Baseline().WithVariant(kernels.Combination).WithBTAC().WithFXUs(4), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles >= base.Cycles {
		t.Errorf("improved core %d cycles, baseline %d", full.Cycles, base.Cycles)
	}
	if full.IPC() <= base.IPC() {
		t.Errorf("improved IPC %.2f not above baseline %.2f", full.IPC(), base.IPC())
	}
}

// window is one interval of a run: the counters accumulated between
// two snapshots.
type window struct {
	end cpu.Counters // cumulative counters at the window's end
	cpu.Counters
}

// intervals runs Clustalw on the baseline under policy and returns the
// windows an interval observer of the given length saw, with the
// response.  A zero length leaves a sink with no length, which Simulate
// must refuse.
func intervals(seed int64, scale int, every uint64, policy TracePolicy) ([]window, *Response, error) {
	var (
		out  []window
		prev cpu.Counters
	)
	obs := kernels.Observer{Every: every, Interval: func(cur cpu.Counters) {
		out = append(out, window{end: cur, Counters: cur.Sub(prev)})
		prev = cur
	}}
	s := Baseline()
	resp, err := Simulate(Request{App: "Clustalw", Variant: s.Variant, CPU: s.CPU,
		Seeds: []int64{seed}, Scale: scale, Trace: policy, Observer: obs})
	return out, resp, err
}

// TestSimulateIntervals: the interval observer windows a run the same
// way on both feeds — one window per full interval, none for the
// partial tail, the windows plus that tail summing to the final
// counters — and a zero interval length is an error.
func TestSimulateIntervals(t *testing.T) {
	const every = 20_000
	var first []window
	for _, policy := range []TracePolicy{TraceOff, TraceAuto} {
		ivs, resp, err := intervals(3, 1, every, policy)
		if err != nil {
			t.Fatal(err)
		}
		final := resp.Aggregate.Counters
		if len(ivs) < 3 || uint64(len(ivs)) != final.Instructions/every {
			t.Fatalf("%s: %d intervals of %d over %d instructions", policy, len(ivs), every, final.Instructions)
		}
		var sum cpu.Counters
		for i, iv := range ivs {
			if ipc := iv.IPC(); ipc <= 0 || ipc > 5 {
				t.Errorf("%s: interval %d: IPC %.2f implausible", policy, i, ipc)
			}
			if r := iv.BranchMispredictRate(); r < 0 || r > 1 {
				t.Errorf("%s: interval %d: mispredict rate %.2f", policy, i, r)
			}
			if iv.Instructions != every || iv.end.Instructions != uint64(i+1)*every {
				t.Errorf("%s: interval %d holds %d instructions and ends at %d", policy, i, iv.Instructions, iv.end.Instructions)
			}
			sum = sum.Add(iv.Counters)
		}
		tail := final.Sub(ivs[len(ivs)-1].end)
		if tail.Instructions >= every || sum.Add(tail) != final {
			t.Errorf("%s: windows + a tail of %d instructions do not sum to the final counters", policy, tail.Instructions)
		}
		if first == nil {
			first = ivs
		} else if !reflect.DeepEqual(ivs, first) {
			t.Errorf("%s: windows differ from the coupled run's", policy)
		}
	}
	for _, policy := range []TracePolicy{TraceOff, TraceAuto} {
		if _, _, err := intervals(3, 1, 0, policy); err == nil {
			t.Errorf("%s: zero interval length accepted", policy)
		}
	}
}

// TestFigure2Correlation verifies the paper's Figure 2 observation in
// our data: interval IPC moves inversely with the interval mispredict
// rate for the Clustalw kernel.
func TestFigure2Correlation(t *testing.T) {
	ivs, _, err := intervals(5, 2, 10_000, TraceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 5 {
		t.Skipf("not enough intervals (%d) for a correlation", len(ivs))
	}
	var mx, my float64
	for _, iv := range ivs {
		mx += iv.BranchMispredictRate()
		my += iv.IPC()
	}
	mx /= float64(len(ivs))
	my /= float64(len(ivs))
	var sxy, sxx, syy float64
	for _, iv := range ivs {
		dx, dy := iv.BranchMispredictRate()-mx, iv.IPC()-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		t.Skip("degenerate variance")
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r >= 0 {
		t.Errorf("IPC vs mispredict-rate correlation = %.2f, want negative", r)
	}
}
