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
	"bioperf5/internal/isa"
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

// RunKernel compiles app's kernel under the setup and simulates one
// invocation per seed, returning the summed counters.
//
// Deprecated: use Simulate, which adds trace policies and hit
// accounting behind the same semantics.  RunKernel runs the coupled
// path (TraceOff).
func RunKernel(k *kernels.Kernel, s Setup, seeds []int64, scale int) (cpu.Counters, error) {
	det, err := RunKernelDetailed(k, s, seeds, scale)
	if err != nil {
		return cpu.Counters{}, err
	}
	return det.Aggregate.Counters, nil
}

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

// RunCell simulates exactly one (kernel, setup, seed) cell — the unit
// of work the internal/sched engine schedules and caches.  It touches
// no state outside its own run, so cells are safe to execute from
// concurrent workers.
//
// Deprecated: use Simulate.  RunCell runs the coupled path (TraceOff).
func RunCell(k *kernels.Kernel, s Setup, seed int64, scale int) (cpu.Report, error) {
	resp, err := Simulate(Request{
		App:     k.App,
		Variant: s.Variant,
		Seeds:   []int64{seed},
		Scale:   scale,
		CPU:     s.CPU,
		Trace:   TraceOff,
	})
	if err != nil {
		return cpu.Report{}, err
	}
	return resp.Aggregate, nil
}

// RunKernelDetailed simulates one invocation per seed, keeping each
// seed's counters and CPI stall stack as well as the aggregate.
//
// Deprecated: use Simulate.  RunKernelDetailed runs the coupled path
// (TraceOff).
func RunKernelDetailed(k *kernels.Kernel, s Setup, seeds []int64, scale int) (*Detail, error) {
	resp, err := Simulate(Request{
		App:     k.App,
		Variant: s.Variant,
		Seeds:   seeds,
		Scale:   scale,
		CPU:     s.CPU,
		Trace:   TraceOff,
	})
	if err != nil {
		return nil, err
	}
	return &Detail{Seeds: resp.Seeds, Aggregate: resp.Aggregate}, nil
}

// RunProfiled simulates one invocation per seed with a branch profiler
// attached to the timing core, under the default trace policy: each
// seed's trace is captured into (or found in) the default store and
// replayed with the profiler watching.  The profiler observes every
// resolved conditional branch and BTAC lookup without touching timing,
// so the counters are identical to an unprofiled run.
//
// Deprecated: use Simulate with Request.Branches.
func RunProfiled(k *kernels.Kernel, s Setup, seeds []int64, scale int, prof cpu.BranchProfiler) (*Detail, error) {
	resp, err := Simulate(Request{
		App:      k.App,
		Variant:  s.Variant,
		Seeds:    seeds,
		Scale:    scale,
		CPU:      s.CPU,
		Branches: prof,
	})
	if err != nil {
		return nil, err
	}
	return &Detail{Seeds: resp.Seeds, Aggregate: resp.Aggregate}, nil
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
	c, err := kernels.CompileCached(k, s.Variant)
	if err != nil {
		return nil, err
	}
	cfg := s.CPU
	if s.Variant.NeedsExtensions() {
		cfg.Extensions = true
	}
	model, err := cpu.New(cfg, c.Meta)
	if err != nil {
		return nil, err
	}
	mach := machine.New(c.Prog, run.Mem)
	mach.Reset()
	if err := mach.SetPC(k.Name); err != nil {
		return nil, err
	}
	mach.SetReg(isa.SP, 0x7FFF0000)
	for i, a := range run.Args {
		mach.SetReg(isa.R3+isa.Reg(i), a)
	}

	var out []Interval
	prev := model.Counters()
	var steps uint64
	for !mach.Halted() {
		if steps >= stepLimit {
			return nil, machine.ErrLimit
		}
		d, err := mach.Step()
		if err != nil {
			return nil, err
		}
		if err := model.Consume(d); err != nil {
			return nil, err
		}
		steps++
		if steps%every == 0 {
			cur := model.Counters()
			win := cur.Sub(prev)
			out = append(out, Interval{
				Instructions:   cur.Instructions,
				IPC:            win.IPC(),
				MispredictRate: win.BranchMispredictRate(),
			})
			prev = cur
		}
	}
	if got := int64(mach.Reg(isa.R3)); got != run.Want {
		return nil, fmt.Errorf("core: %s computed %d, want %d", k.Name, got, run.Want)
	}
	return out, nil
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
	c, err := kernels.CompileCached(k, s.Variant)
	if err != nil {
		return SampledResult{}, err
	}
	cfg := s.CPU
	if s.Variant.NeedsExtensions() {
		cfg.Extensions = true
	}
	model, err := cpu.New(cfg, c.Meta)
	if err != nil {
		return SampledResult{}, err
	}
	mach := machine.New(c.Prog, run.Mem)
	mach.Reset()
	if err := mach.SetPC(k.Name); err != nil {
		return SampledResult{}, err
	}
	mach.SetReg(isa.SP, 0x7FFF0000)
	for i, a := range run.Args {
		mach.SetReg(isa.R3+isa.Reg(i), a)
	}

	var res SampledResult
	inWindow := uint64(0)
	detail := true
	for !mach.Halted() {
		if res.TotalInstr >= stepLimit {
			return res, machine.ErrLimit
		}
		d, err := mach.Step()
		if err != nil {
			return res, err
		}
		res.TotalInstr++
		if detail {
			if err := model.Consume(d); err != nil {
				return res, err
			}
		}
		inWindow++
		if detail && inWindow >= sc.Detail {
			detail, inWindow = sc.Skip == 0, 0
		} else if !detail && inWindow >= sc.Skip {
			detail, inWindow = true, 0
		}
	}
	res.Detailed = model.Counters()
	if res.Detailed.Instructions > 0 {
		cpi := float64(res.Detailed.Cycles) / float64(res.Detailed.Instructions)
		res.EstimatedCycles = cpi * float64(res.TotalInstr)
	}
	if got := int64(mach.Reg(isa.R3)); got != run.Want {
		return res, fmt.Errorf("core: %s computed %d, want %d", k.Name, got, run.Want)
	}
	return res, nil
}
