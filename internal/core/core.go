// Package core is the paper's contribution assembled into a runnable
// evaluation pipeline: a Setup pairs one of the predication variants
// (Section IV-A/B) with a microarchitecture configuration (BTAC of
// Section IV-D, fixed-point unit count of Section VI-C), and runners
// execute the BioPerf DP kernels on real data through the compiler and
// the POWER5 timing model, aggregating hardware counters the way the
// paper's SystemSim methodology does — including SMARTS-style sampled
// simulation and the interval statistics behind Figure 2.
package core

import (
	"fmt"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/machine"
)

// Setup is one evaluated machine: how the kernel is compiled plus the
// core configuration it runs on.
type Setup struct {
	Name    string
	Variant kernels.Variant
	CPU     cpu.Config
}

// Baseline is the unmodified POWER5 running unmodified (branchy) code.
func Baseline() Setup {
	return Setup{Name: "POWER5 baseline", Variant: kernels.Branchy, CPU: cpu.POWER5Baseline()}
}

// WithVariant returns the setup recompiled under a predication variant.
func (s Setup) WithVariant(v kernels.Variant) Setup {
	s.Variant = v
	s.Name = fmt.Sprintf("%s + %s", s.Name, v)
	return s
}

// WithBTAC returns the setup with the 8-entry score-based BTAC enabled.
func (s Setup) WithBTAC() Setup {
	s.CPU.UseBTAC = true
	s.Name += " + BTAC"
	return s
}

// WithFXUs returns the setup with n fixed-point units.
func (s Setup) WithFXUs(n int) Setup {
	s.CPU.NumFXU = n
	s.Name += fmt.Sprintf(" + %d FXUs", n)
	return s
}

// stepLimit bounds a single kernel invocation.
const stepLimit = 500_000_000

// SeedReport is one seed's detailed simulation outcome.
type SeedReport struct {
	Seed     int64          `json:"seed"`
	Counters cpu.Counters   `json:"counters"`
	Stalls   cpu.StallStack `json:"stall_stack"`
}

// Detail is a per-seed view of one kernel/setup simulation plus the
// field-wise aggregate — the data behind the harness JSON reports and
// the `bioperf5 stats` subcommand.
type Detail struct {
	Seeds     []SeedReport `json:"seeds"`
	Aggregate cpu.Report   `json:"aggregate"`
}

// Interval is one sampling window of a run (Figure 2's x-axis is
// time; instructions retired is the architecture-independent analogue).
type Interval struct {
	Instructions   uint64 // cumulative instructions at the window end
	IPC            float64
	MispredictRate float64
}

// RunIntervals simulates one invocation and snapshots the counters
// every `every` instructions, reproducing the IPC-vs-time and
// mispredict-vs-time traces of Figure 2.
func RunIntervals(k *kernels.Kernel, s Setup, seed int64, scale int, every uint64) ([]Interval, error) {
	if every == 0 {
		return nil, fmt.Errorf("core: zero interval length")
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return nil, err
	}
	var (
		out   []Interval
		prev  cpu.Counters
		steps uint64
	)
	_, err = kernels.Step(k, s.Variant, run, s.CPU, stepLimit, func(m *cpu.Model, d machine.DynInst) error {
		if err := m.Consume(d); err != nil {
			return err
		}
		if steps++; steps%every == 0 {
			cur := m.Counters()
			win := cur.Sub(prev)
			out = append(out, Interval{
				Instructions:   cur.Instructions,
				IPC:            win.IPC(),
				MispredictRate: win.BranchMispredictRate(),
			})
			prev = cur
		}
		return nil
	})
	return out, err
}

// SampleConfig is a SMARTS-style systematic sampling schedule: Detail
// instructions are simulated in full detail, then Skip instructions are
// fast-forwarded functionally (the machine state advances, the timing
// model does not), repeating.
type SampleConfig struct {
	Detail uint64
	Skip   uint64
}

// SampledResult extrapolates whole-run cycles from the detailed
// windows, as SMARTS does.
type SampledResult struct {
	Detailed        cpu.Counters // counters accumulated in detailed windows
	TotalInstr      uint64       // instructions executed (all modes)
	EstimatedCycles float64      // detailed CPI x total instructions
}

// EstimatedIPC returns the whole-run IPC estimate.
func (r SampledResult) EstimatedIPC() float64 {
	if r.EstimatedCycles == 0 {
		return 0
	}
	return float64(r.TotalInstr) / r.EstimatedCycles
}

// RunSampled simulates one invocation under the sampling schedule.
func RunSampled(k *kernels.Kernel, s Setup, seed int64, scale int, sc SampleConfig) (SampledResult, error) {
	if sc.Detail == 0 {
		return SampledResult{}, fmt.Errorf("core: zero detail window")
	}
	run, err := k.NewRun(seed, scale)
	if err != nil {
		return SampledResult{}, err
	}
	var res SampledResult
	inWindow, detail := uint64(0), true
	model, err := kernels.Step(k, s.Variant, run, s.CPU, stepLimit, func(m *cpu.Model, d machine.DynInst) error {
		res.TotalInstr++
		if detail {
			if err := m.Consume(d); err != nil {
				return err
			}
		}
		inWindow++
		if detail && inWindow >= sc.Detail {
			detail, inWindow = sc.Skip == 0, 0
		} else if !detail && inWindow >= sc.Skip {
			detail, inWindow = true, 0
		}
		return nil
	})
	if model == nil {
		return res, err
	}
	res.Detailed = model.Counters()
	if res.Detailed.Instructions > 0 {
		cpi := float64(res.Detailed.Cycles) / float64(res.Detailed.Instructions)
		res.EstimatedCycles = cpi * float64(res.TotalInstr)
	}
	return res, err
}
