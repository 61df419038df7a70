package core

import (
	"math"
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

func TestRunIntervals(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := RunIntervals(k, Baseline(), 3, 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 3 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	for i, iv := range ivs {
		if iv.IPC <= 0 || iv.IPC > 5 {
			t.Errorf("interval %d: IPC %.2f implausible", i, iv.IPC)
		}
		if iv.MispredictRate < 0 || iv.MispredictRate > 1 {
			t.Errorf("interval %d: mispredict rate %.2f", i, iv.MispredictRate)
		}
		if i > 0 && iv.Instructions <= ivs[i-1].Instructions {
			t.Error("intervals not monotone in instructions")
		}
	}
	if _, err := RunIntervals(k, Baseline(), 3, 1, 0); err == nil {
		t.Error("zero interval length accepted")
	}
}

// TestFigure2Correlation verifies the paper's Figure 2 observation in
// our data: interval IPC moves inversely with the interval mispredict
// rate for the Clustalw kernel.
func TestFigure2Correlation(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := RunIntervals(k, Baseline(), 5, 2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 5 {
		t.Skipf("not enough intervals (%d) for a correlation", len(ivs))
	}
	var mx, my float64
	for _, iv := range ivs {
		mx += iv.MispredictRate
		my += iv.IPC
	}
	mx /= float64(len(ivs))
	my /= float64(len(ivs))
	var sxy, sxx, syy float64
	for _, iv := range ivs {
		dx, dy := iv.MispredictRate-mx, iv.IPC-my
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

func TestRunSampledApproximatesFullRun(t *testing.T) {
	k, err := kernels.ByApp("Fasta")
	if err != nil {
		t.Fatal(err)
	}
	full, err := coupled(k, Baseline(), []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunSampled(k, Baseline(), 4, 1, SampleConfig{Detail: 10_000, Skip: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.TotalInstr != full.Instructions {
		t.Errorf("sampled executed %d instructions, full %d", sampled.TotalInstr, full.Instructions)
	}
	if sampled.Detailed.Instructions >= sampled.TotalInstr {
		t.Error("sampling simulated everything in detail")
	}
	fullIPC := full.IPC()
	estIPC := sampled.EstimatedIPC()
	if relErr := math.Abs(estIPC-fullIPC) / fullIPC; relErr > 0.25 {
		t.Errorf("sampled IPC %.3f vs full %.3f (err %.0f%%)", estIPC, fullIPC, 100*relErr)
	}
	if _, err := RunSampled(k, Baseline(), 4, 1, SampleConfig{}); err == nil {
		t.Error("zero detail window accepted")
	}
}

func TestSampledDetailOnlyEqualsFull(t *testing.T) {
	k, err := kernels.ByApp("Clustalw")
	if err != nil {
		t.Fatal(err)
	}
	full, err := coupled(k, Baseline(), []int64{6})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunSampled(k, Baseline(), 6, 1, SampleConfig{Detail: 1 << 40, Skip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Detailed.Cycles != full.Cycles {
		t.Errorf("detail-only sampling: %d cycles vs full %d", sampled.Detailed.Cycles, full.Cycles)
	}
}
