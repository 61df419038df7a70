// Package kernels carries the four BioPerf dynamic-programming kernels
// onto the simulator: each kernel is expressed in compiler IR in the
// code shapes the paper studies, marshalled with real workload data
// into simulated memory, compiled for a chosen ISA variant and executed
// on the POWER5 timing model.
//
// The paper's Figure 3 bars map to variants as follows:
//
//	Branchy   — the unmodified application: max statements compiled to
//	            compare-and-branch (the POWER5 baseline).
//	HandMax   — the authors' hand-inserted max instructions.
//	HandISel  — the authors' hand-inserted cmp+isel sequences.
//	CompMax   — modified gcc: if-conversion, max pattern matching.
//	CompISel  — modified gcc: if-conversion to isel.
//	Combination — hand-inserted max plus compiler-emitted isel for the
//	            remaining hammocks (the paper's best mix).
//
// Each kernel's branchy IR reflects how its C source reads: Fasta and
// Blast hoist loads out of the conditionals (so the compiler can
// legally if-convert everything, including hammocks the hand edits
// skipped), whereas Clustalw and Hmmer re-reference arrays inside the
// conditionals (the "abundant array memory references" of Section VI-A
// that defeat the compiler's safety analysis but not the programmer).
package kernels

import (
	"fmt"
	"strings"

	"bioperf5/internal/cache"
	"bioperf5/internal/compiler"
	"bioperf5/internal/cpu"
	"bioperf5/internal/ir"
	"bioperf5/internal/isa"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
	"bioperf5/internal/telemetry"
)

// Entry conventions, known to load and check alone (machine.Call, which
// Execute uses, applies the same ones).
const (
	spReg  = isa.SP
	spInit = uint64(0x7FFF0000)
)

func argReg(i int) isa.Reg { return isa.R3 + isa.Reg(i) }

// load puts run on a fresh functional machine at the kernel's entry:
// stack pointer set, arguments in their registers.
func load(k *Kernel, c *Compiled, run *Run) (*machine.Machine, error) {
	mach := machine.New(c.Prog, run.Mem)
	mach.Reset()
	if err := mach.SetPC(k.Name); err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	mach.SetReg(spReg, spInit)
	for i, a := range run.Args {
		mach.SetReg(argReg(i), a)
	}
	return mach, nil
}

// check verifies the functional result of a halted machine.
func check(k *Kernel, v Variant, mach *machine.Machine, run *Run) error {
	if got := int64(mach.Reg(argReg(0))); got != run.Want {
		return fmt.Errorf("kernels: %s/%s: computed %d, want %d", k.Name, v, got, run.Want)
	}
	return nil
}

// Variant selects a predication strategy (a Figure 3 bar).
type Variant int

// Predication variants.
const (
	Branchy Variant = iota
	HandISel
	HandMax
	CompISel
	CompMax
	Combination
	NumVariants
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Branchy:
		return "original"
	case HandISel:
		return "hand isel"
	case HandMax:
		return "hand max"
	case CompISel:
		return "comp. isel"
	case CompMax:
		return "comp. max"
	case Combination:
		return "combination"
	}
	return fmt.Sprintf("variant%d", int(v))
}

// variantAliases maps convenient spellings to canonical variant names,
// shared by the CLI flags and the HTTP API so both surfaces accept the
// same vocabulary.
var variantAliases = map[string]string{
	"base":     "original",
	"baseline": "original",
	"branchy":  "original",
	"isel":     "hand isel",
	"max":      "hand max",
	"combo":    "combination",
}

// VariantByName resolves a canonical variant name ("original", "hand
// isel", ...) or a documented alias ("base", "combo", ...) to its
// Variant.  Matching is case-insensitive.
func VariantByName(name string) (Variant, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if full, ok := variantAliases[name]; ok {
		name = full
	}
	for v := Branchy; v < NumVariants; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("kernels: unknown variant %q", name)
}

// Shape is the IR form a variant compiles from.
type Shape int

// IR shapes.
const (
	ShapeBranchy  Shape = iota // hammocks everywhere
	ShapeHandMax               // explicit OpMax at the max statements
	ShapeHandISel              // explicit OpSelect at the max statements
)

// Plan returns the IR shape, compile target and options for a variant.
func (v Variant) Plan() (Shape, compiler.Target, compiler.Options) {
	switch v {
	case Branchy:
		return ShapeBranchy, compiler.POWER5Stock(), compiler.Options{}
	case HandISel:
		return ShapeHandISel, compiler.Target{HasISel: true}, compiler.Options{}
	case HandMax:
		return ShapeHandMax, compiler.Target{HasMax: true}, compiler.Options{}
	case CompISel:
		return ShapeBranchy, compiler.Target{HasISel: true}, compiler.DefaultOptions()
	case CompMax:
		// The compiler-max build also has isel available for converted
		// hammocks that are not max patterns, as the paper's modified
		// gcc targets the embedded-core isel as its fallback.
		return ShapeBranchy, compiler.Target{HasMax: true, HasISel: true}, compiler.DefaultOptions()
	case Combination:
		// Hand-placed max instructions plus compiler isel conversion of
		// everything else.
		return ShapeHandMax, compiler.Target{HasMax: true, HasISel: true}, compiler.DefaultOptions()
	}
	return ShapeBranchy, compiler.POWER5Stock(), compiler.Options{}
}

// NeedsExtensions reports whether the compiled program may contain
// max/isel (i.e. requires the extended core).
func (v Variant) NeedsExtensions() bool { return v != Branchy }

// Run is a marshalled kernel invocation: memory image, entry arguments
// and the expected result.
type Run struct {
	Mem  *mem.Memory
	Args []uint64
	Want int64
}

// Kernel describes one application's DP kernel.
type Kernel struct {
	Name string // function name (dropgsw, forward_pass, ...)
	App  string // application (Fasta, Clustalw, ...)

	// Build constructs the kernel IR in the given shape.
	Build func(s Shape) (*ir.Func, error)

	// NewRun marshals a workload-scale input; scale 1 is the unit used
	// by tests, larger scales by the harness.
	NewRun func(seed int64, scale int) (*Run, error)
}

// Compile builds and compiles the kernel for a variant, returning the
// assembled program and the compiler's transformation statistics.
// Compilation is deterministic and results are memoized per
// (kernel, variant); the returned program is shared and must be
// treated as read-only.
func (k *Kernel) Compile(v Variant) (*isa.Program, *compiler.Stats, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return nil, nil, err
	}
	return c.Prog, c.Stats, nil
}

// compile is the uncached compilation CompileCached memoizes.
func (k *Kernel) compile(v Variant) (*isa.Program, *compiler.Stats, error) {
	shape, tgt, opts := v.Plan()
	f, err := k.Build(shape)
	if err != nil {
		return nil, nil, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	prog, st, err := compiler.Compile(f, tgt, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	return prog, st, nil
}

// Execute runs a compiled kernel on the functional machine alone (no
// timing) and checks the result; it returns the dynamic instruction
// count.
func Execute(k *Kernel, v Variant, run *Run, limit uint64) (uint64, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return 0, err
	}
	mach := machine.New(c.Prog, run.Mem)
	got, err := mach.Call(k.Name, limit, run.Args...)
	if err != nil {
		return 0, fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	if int64(got) != run.Want {
		return 0, fmt.Errorf("kernels: %s/%s: computed %d, want %d", k.Name, v, int64(got), run.Want)
	}
	return mach.Steps(), nil
}

// Observer bundles the optional observability hooks a simulation can
// carry, live or replayed: a pipeline event trace, a telemetry registry
// the timing core (and, on the live path, its cache hierarchy and
// memory image) publish into after the run, a per-static-branch
// profiler fed every resolved branch, and an interval sink handed the
// core's cumulative counters every Every consumed instructions.
type Observer struct {
	Trace    *telemetry.TraceBuffer
	Registry *telemetry.Registry
	Branches cpu.BranchProfiler
	Every    uint64
	Interval func(cpu.Counters)
}

// hooks returns the core hooks the observer asks for, nil when it asks
// for none so the core's hot loop stays on its detached path.
func (o Observer) hooks() (*cpu.Hooks, error) {
	if (o.Every == 0) != (o.Interval == nil) {
		return nil, fmt.Errorf("kernels: an interval observer needs a non-zero length and a sink (length %d)", o.Every)
	}
	if o.Trace == nil && o.Registry == nil && o.Branches == nil && o.Interval == nil {
		return nil, nil
	}
	h := &cpu.Hooks{Trace: o.Trace, Branches: o.Branches, Every: o.Every, Interval: o.Interval}
	if o.Registry != nil {
		h.Telemetry(o.Registry)
	}
	return h, nil
}

// newCore builds the timing core of one cell, fed live or from a
// trace: cfg with the variant's ISA extensions enabled, load-to-use
// latencies loadLat, and the observer's hooks attached.
func (o Observer) newCore(v Variant, cfg cpu.Config, loadLat [3]int) (*cpu.Core, error) {
	hooks, err := o.hooks()
	if err != nil {
		return nil, err
	}
	if v.NeedsExtensions() {
		cfg.Extensions = true
	}
	core, err := cpu.NewCore(cfg, loadLat)
	if err != nil {
		return nil, err
	}
	core.Observe(hooks)
	return core, nil
}

// publish mirrors each source's final state into the observer's
// registry, when it has one.
func (o Observer) publish(sources ...interface{ PublishTo(*telemetry.Registry) }) {
	if o.Registry == nil {
		return
	}
	for _, s := range sources {
		s.PublishTo(o.Registry)
	}
}

// SimulateObserved runs a compiled kernel through the coupled
// functional machine and timing core — cpu.Walk with a live core and
// nothing kept — and verifies the functional result against run.Want.
// It returns the counters together with the CPI stall stack, feeds
// obs's hooks, and publishes the final core, cache and memory-image
// state into obs.Registry when set.
func SimulateObserved(k *Kernel, v Variant, run *Run, cfg cpu.Config, limit uint64, obs Observer) (cpu.Report, error) {
	c, err := CompileCached(k, v)
	if err != nil {
		return cpu.Report{}, err
	}
	hier := cache.NewPOWER5Hierarchy()
	core, err := obs.newCore(v, cfg, hier.LevelLatencies())
	if err != nil {
		return cpu.Report{}, err
	}
	mach, err := load(k, c, run)
	if err != nil {
		return cpu.Report{}, err
	}
	defer obs.publish(core, hier, run.Mem)
	if err := cpu.Walk(mach, c.Meta, hier, limit, core, nil); err != nil {
		return core.Report(), fmt.Errorf("kernels: %s/%s: %w", k.Name, v, err)
	}
	return core.Report(), check(k, v, mach, run)
}

// All returns the four kernels in the order the paper lists the
// applications (Blast, Clustalw, Fasta, Hmmer).
func All() []*Kernel {
	return []*Kernel{
		SemiGappedKernel(),
		ForwardPassKernel(),
		DropgswKernel(),
		ViterbiKernel(),
	}
}

// ByApp returns the kernel for an application name.
func ByApp(app string) (*Kernel, error) {
	for _, k := range All() {
		if k.App == app {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown application %q", app)
}
