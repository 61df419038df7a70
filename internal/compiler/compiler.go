package compiler

import (
	"fmt"

	"bioperf5/internal/ir"
	"bioperf5/internal/isa"
)

// Target describes which of the paper's ISA extensions the target core
// implements (Section IV-A).
type Target struct {
	HasMax  bool // the hypothetical single-cycle max instruction
	HasISel bool // the embedded-PowerPC isel instruction
}

// POWER5Stock is the unmodified POWER5: neither extension, so all
// predicated IR lowers back to compare-and-branch hammocks.
func POWER5Stock() Target { return Target{} }

// Options controls the optimization pipeline.
type Options struct {
	// IfConvert enables the gcc-style hammock if-conversion pass.  The
	// paper's "compiler" bars in Figure 3 have this on; the "hand"
	// bars rely on max/select operations the kernel author placed and
	// leave the remaining branches alone.
	IfConvert bool
}

// DefaultOptions returns the pipeline configuration used by the
// experiments' compiler variants.
func DefaultOptions() Options {
	return Options{IfConvert: true}
}

// Stats reports what the pipeline did to a function, for the harness's
// instruction-mix tables.
type Stats struct {
	HammocksConverted int // hammocks if-conversion flattened
	MaxFolded         int // selects pattern-matched into max
	SelectsExpanded   bool
	SpillSlots        int
	Instructions      int // final machine instruction count
}

// Compile optimizes and lowers f for the given target.  The function is
// mutated; callers that need to compile one kernel for several targets
// should rebuild the IR per call (kernel constructors are cheap).
func Compile(f *ir.Func, tgt Target, opts Options) (*isa.Program, *Stats, error) {
	if len(f.Blocks) == 0 {
		return nil, nil, errNoEntry
	}
	if err := f.Verify(); err != nil {
		return nil, nil, err
	}
	st := &Stats{}

	if opts.IfConvert {
		st.HammocksConverted = IfConvert(f)
	}
	// Collapse the copies if-conversion introduced so the max pattern
	// matcher sees select(a<b, b, a) rather than select(a<b, t, a).
	copyProp(f)
	if tgt.HasMax {
		st.MaxFolded = foldMaxPatterns(f)
	}
	if err := lowerForTarget(f, tgt); err != nil {
		return nil, nil, err
	}
	st.SelectsExpanded = !tgt.HasISel

	hoistConsts(f)
	hoistArgs(f) // must end up ahead of the hoisted constants
	copyProp(f)
	foldImmediates(f)
	sinkCopies(f)
	dce(f)
	removeUnreachable(f)
	if err := f.Verify(); err != nil {
		return nil, nil, fmt.Errorf("compiler: post-optimization IR invalid: %w", err)
	}

	alloc, err := linearScan(f)
	if err != nil {
		return nil, nil, err
	}
	st.SpillSlots = len(alloc.slots)

	prog, err := generate(f, alloc)
	if err != nil {
		return nil, nil, err
	}
	st.Instructions = prog.Len()
	return prog, st, nil
}
