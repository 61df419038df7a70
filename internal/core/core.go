// Package core is the paper's contribution assembled into a runnable
// evaluation pipeline: a Setup pairs one of the predication variants
// (Section IV-A/B) with a microarchitecture configuration (BTAC of
// Section IV-D, fixed-point unit count of Section VI-C), and runners
// execute the BioPerf DP kernels on real data through the compiler and
// the POWER5 timing model, aggregating hardware counters the way the
// paper's SystemSim methodology does.  Simulate is the one runner; the
// interval statistics behind Figure 2 are an Observer hook on it.
package core

import (
	"fmt"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
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
