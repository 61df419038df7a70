package compiler

import (
	"math/rand"
	"testing"

	"bioperf5/internal/ir"
	"bioperf5/internal/machine"
	"bioperf5/internal/mem"
)

// targets lists the four ISA variants the paper's experiments compile
// for.
var targets = map[string]Target{
	"stock":    {},
	"isel":     {HasISel: true},
	"max":      {HasMax: true},
	"max+isel": {HasMax: true, HasISel: true},
}

// optionSets pairs target-independent pipeline options with a name.
var optionSets = map[string]Options{
	"plain":     {},
	"ifconvert": DefaultOptions(),
}

// checkAllVariants compiles the function produced by build under every
// target/options combination, runs it on the functional machine, and
// compares against the IR interpreter (ground truth).  initMem seeds
// identical memory contents for both executions.
func checkAllVariants(t *testing.T, build func() *ir.Func, args []int64, initMem func(*mem.Memory)) {
	t.Helper()
	refMem := mem.New()
	if initMem != nil {
		initMem(refMem)
	}
	refFunc := build()
	want, err := ir.Interp(refFunc, refMem, args, 50_000_000)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for tname, tgt := range targets {
		for oname, opts := range optionSets {
			f := build()
			prog, _, err := Compile(f, tgt, opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", tname, oname, err)
			}
			m := mem.New()
			if initMem != nil {
				initMem(m)
			}
			mach := machine.New(prog, m)
			uargs := make([]uint64, len(args))
			for i, a := range args {
				uargs[i] = uint64(a)
			}
			got, err := mach.Call(f.Name, 50_000_000, uargs...)
			if err != nil {
				t.Fatalf("%s/%s: run: %v\n%s", tname, oname, err, prog.Disasm())
			}
			if int64(got) != want {
				t.Errorf("%s/%s: got %d, want %d\nIR:\n%s\nasm:\n%s",
					tname, oname, int64(got), want, f.String(), prog.Disasm())
			}
		}
	}
}

func TestCompileStraightLine(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("f", 2)
		x, y := b.Arg(0), b.Arg(1)
		b.Ret(b.Add(b.MulI(x, 7), b.SubI(y, 3)))
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	checkAllVariants(t, build, []int64{11, 5}, nil)
	checkAllVariants(t, build, []int64{-4, 0}, nil)
}

func TestCompileMaxIdiom(t *testing.T) {
	// The paper's core hammock: if (a < b) a = b.
	build := func() *ir.Func {
		b := ir.NewBuilder("maxer", 2)
		x := b.Var(b.Arg(0))
		y := b.Arg(1)
		b.If(ir.CondOf(ir.CmpLT, x, y), func() {
			b.Assign(x, y)
		})
		b.Ret(x)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, args := range [][]int64{{3, 9}, {9, 3}, {-5, -5}, {-9, -3}} {
		checkAllVariants(t, build, args, nil)
	}
}

func TestCompileLoopWithHammock(t *testing.T) {
	// Running maximum over a memory array: the dropgsw/forward_pass
	// shape in miniature.
	const base = 0x4000
	const n = 64
	initMem := func(m *mem.Memory) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			m.WriteInt(base+uint64(4*i), 4, int64(int32(rng.Intn(2000)-1000)))
		}
	}
	build := func() *ir.Func {
		b := ir.NewBuilder("runmax", 1)
		p := b.Arg(0)
		best := b.Var(b.Const(-1 << 30))
		b.ForRange(b.Const(0), b.Const(n), 1, func(i ir.Reg) {
			off := b.Shl(i, b.Const(2))
			v := b.LoadX(ir.MemS32, p, off, true)
			b.If(ir.CondOf(ir.CmpGT, v, best), func() {
				b.Assign(best, v)
			})
		})
		b.Ret(best)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	checkAllVariants(t, build, []int64{base}, initMem)
}

func TestCompileDiamond(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("absdiff", 2)
		x, y := b.Arg(0), b.Arg(1)
		r := b.Var(b.Const(0))
		b.IfElse(ir.CondOf(ir.CmpGE, x, y),
			func() { b.Assign(r, b.Sub(x, y)) },
			func() { b.Assign(r, b.Sub(y, x)) })
		b.Ret(r)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, args := range [][]int64{{10, 4}, {4, 10}, {-3, -3}} {
		checkAllVariants(t, build, args, nil)
	}
}

func TestCompileStoresInLoop(t *testing.T) {
	const src = 0x1000
	const dst = 0x2000
	const n = 32
	initMem := func(m *mem.Memory) {
		for i := 0; i < n; i++ {
			m.WriteInt(src+uint64(8*i), 8, int64(i*i-7))
		}
	}
	build := func() *ir.Func {
		b := ir.NewBuilder("copyclamp", 2)
		s, d := b.Arg(0), b.Arg(1)
		zero := b.Const(0)
		b.ForRange(b.Const(0), b.Const(n), 1, func(i ir.Reg) {
			off := b.Shl(i, b.Const(3))
			v := b.LoadX(ir.Mem64, s, off, true)
			clamped := b.Max(v, zero)
			b.StoreX(ir.Mem64, d, off, clamped)
		})
		// Return a checksum.
		sum := b.Var(b.Const(0))
		b.ForRange(b.Const(0), b.Const(n), 1, func(i ir.Reg) {
			off := b.Shl(i, b.Const(3))
			b.Assign(sum, b.Add(sum, b.LoadX(ir.Mem64, d, off, true)))
		})
		b.Ret(sum)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	checkAllVariants(t, build, []int64{src, dst}, initMem)
}

func TestCompileHighPressureSpills(t *testing.T) {
	// More than 26 simultaneously live values forces spilling.
	build := func() *ir.Func {
		b := ir.NewBuilder("pressure", 1)
		x := b.Arg(0)
		var vals []ir.Reg
		for i := 0; i < 40; i++ {
			vals = append(vals, b.AddI(x, int64(i*i+1)))
		}
		sum := b.Const(0)
		for _, v := range vals {
			sum = b.Add(sum, v)
		}
		b.Ret(sum)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := build()
	_, st, err := Compile(f, Target{HasMax: true, HasISel: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillSlots == 0 {
		t.Log("note: no spills generated; pressure test weaker than intended")
	}
	checkAllVariants(t, build, []int64{123}, nil)
}

func TestQuickCompiledMatchesInterp(t *testing.T) {
	// Property: for random inputs, the branchy and fully predicated
	// compilations agree with the interpreter on a 3-way max kernel —
	// the forward_pass inner step.
	build := func() *ir.Func {
		b := ir.NewBuilder("max3", 3)
		x, y, z := b.Arg(0), b.Arg(1), b.Arg(2)
		m := b.Var(x)
		b.If(ir.CondOf(ir.CmpGT, y, m), func() { b.Assign(m, y) })
		b.If(ir.CondOf(ir.CmpGT, z, m), func() { b.Assign(m, z) })
		zero := b.Const(0)
		b.If(ir.CondOf(ir.CmpLT, m, zero), func() { b.Assign(m, zero) })
		b.Ret(m)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		args := []int64{rng.Int63n(2001) - 1000, rng.Int63n(2001) - 1000, rng.Int63n(2001) - 1000}
		checkAllVariants(t, build, args, nil)
	}
}

func TestIfConvertTriangle(t *testing.T) {
	b := ir.NewBuilder("tri", 2)
	x := b.Var(b.Arg(0))
	y := b.Arg(1)
	b.If(ir.CondOf(ir.CmpLT, x, y), func() { b.Assign(x, y) })
	b.Ret(x)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n := IfConvert(f); n != 1 {
		t.Fatalf("converted %d hammocks, want 1", n)
	}
	if CountHammocks(f) != 0 {
		t.Errorf("hammocks remain after conversion:\n%s", f.String())
	}
	if got := CountOps(f)[ir.OpSelect]; got != 1 {
		t.Errorf("selects = %d, want 1", got)
	}
	// Semantics preserved.
	got, err := ir.Interp(f, mem.New(), []int64{3, 8}, 1000)
	if err != nil || got != 8 {
		t.Errorf("after conversion: got %d (%v), want 8", got, err)
	}
}

func TestIfConvertDiamond(t *testing.T) {
	b := ir.NewBuilder("dia", 2)
	x, y := b.Arg(0), b.Arg(1)
	r := b.Var(b.Const(0))
	b.IfElse(ir.CondOf(ir.CmpGE, x, y),
		func() { b.Assign(r, b.Sub(x, y)) },
		func() { b.Assign(r, b.Sub(y, x)) })
	b.Ret(r)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n := IfConvert(f); n != 1 {
		t.Fatalf("converted %d, want 1", n)
	}
	got, err := ir.Interp(f, mem.New(), []int64{4, 9}, 1000)
	if err != nil || got != 5 {
		t.Errorf("absdiff(4,9) after conversion = %d (%v)", got, err)
	}
}

func TestIfConvertRefusesStores(t *testing.T) {
	b := ir.NewBuilder("st", 2)
	p, v := b.Arg(0), b.Arg(1)
	b.If(ir.CondOf(ir.CmpGT, v, b.Const(0)), func() {
		b.Store(ir.Mem64, p, 0, v)
	})
	b.Ret(v)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n := IfConvert(f); n != 0 {
		t.Errorf("converted %d hammocks containing stores", n)
	}
}

func TestIfConvertRefusesUnsafeLoads(t *testing.T) {
	// The paper's "c = (a > b) ? A[i] : B[i]" case: the load may fault,
	// so conversion is illegal unless the compiler proves it safe.
	makeF := func(safe bool) *ir.Func {
		b := ir.NewBuilder("ld", 2)
		p, v := b.Arg(0), b.Arg(1)
		r := b.Var(b.Const(0))
		b.If(ir.CondOf(ir.CmpGT, v, b.Const(0)), func() {
			b.Assign(r, b.Load(ir.Mem64, p, 0, safe))
		})
		b.Ret(r)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if n := IfConvert(makeF(false)); n != 0 {
		t.Error("unsafe load speculated")
	}
	if n := IfConvert(makeF(true)); n != 1 {
		t.Error("safe+noalias load not speculated")
	}
}

func TestIfConvertRefusesAliasedLoads(t *testing.T) {
	b := ir.NewBuilder("alias", 2)
	p, v := b.Arg(0), b.Arg(1)
	r := b.Var(b.Const(0))
	b.If(ir.CondOf(ir.CmpGT, v, b.Const(0)), func() {
		ld := b.Load(ir.Mem64, p, 0, true)
		b.Assign(r, ld)
	})
	b.Ret(r)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Clear the alias proof: the load stays Safe (non-faulting) but an
	// intervening store might alias it — Section IV-B's last obstacle.
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].IsLoad() {
				blk.Instrs[i].NoAlias = false
			}
		}
	}
	if n := IfConvert(f); n != 0 {
		t.Error("possibly-aliased load speculated")
	}
}

func TestIfConvertArmSizeLimit(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("big", 2)
		x := b.Var(b.Arg(0))
		y := b.Arg(1)
		b.If(ir.CondOf(ir.CmpLT, x, y), func() {
			v := y
			for i := 0; i < 20; i++ {
				v = b.AddI(v, 1)
			}
			b.Assign(x, v)
		})
		b.Ret(x)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if n := IfConvert(build()); n != 0 {
		t.Error("oversized arm speculated")
	}
}

func TestFoldMaxPatterns(t *testing.T) {
	cases := []struct {
		cmp  ir.CmpKind
		swap bool // payload order b,a instead of a,b
		want bool
	}{
		{ir.CmpGT, false, true},
		{ir.CmpGE, false, true},
		{ir.CmpLT, true, true},
		{ir.CmpLE, true, true},
		{ir.CmpGT, true, false}, // min, not max
		{ir.CmpEQ, false, false},
	}
	for _, c := range cases {
		b := ir.NewBuilder("m", 2)
		x, y := b.Arg(0), b.Arg(1)
		tv, ev := x, y
		if c.swap {
			tv, ev = y, x
		}
		b.Ret(b.Select(c.cmp, x, y, tv, ev))
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		n := foldMaxPatterns(f)
		if (n == 1) != c.want {
			t.Errorf("cmp=%s swap=%v: folded=%d, want fold=%v", c.cmp, c.swap, n, c.want)
		}
	}
}

func TestExpandSelectsRemovesAll(t *testing.T) {
	b := ir.NewBuilder("sel", 3)
	x, y, z := b.Arg(0), b.Arg(1), b.Arg(2)
	s1 := b.Select(ir.CmpGT, x, y, x, y)
	s2 := b.Select(ir.CmpLT, s1, z, z, s1)
	b.Ret(s2)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := expandSelects(f); err != nil {
		t.Fatal(err)
	}
	if n := CountOps(f)[ir.OpSelect]; n != 0 {
		t.Fatalf("%d selects remain", n)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("invalid after expansion: %v\n%s", err, f.String())
	}
	got, err := ir.Interp(f, mem.New(), []int64{3, 7, 5}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// max(3,7)=7; select(7<5, 5, 7) = 7.
	if got != 7 {
		t.Errorf("got %d, want 7", got)
	}
}

func TestCompileStatsReported(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("stats", 2)
		x := b.Var(b.Arg(0))
		y := b.Arg(1)
		b.If(ir.CondOf(ir.CmpLT, x, y), func() { b.Assign(x, y) })
		b.Ret(x)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	_, st, err := Compile(build(), Target{HasMax: true}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.HammocksConverted != 1 {
		t.Errorf("HammocksConverted = %d, want 1", st.HammocksConverted)
	}
	if st.MaxFolded != 1 {
		t.Errorf("MaxFolded = %d, want 1", st.MaxFolded)
	}
	if st.Instructions == 0 {
		t.Error("Instructions not counted")
	}

	// Without if-conversion on a stock target nothing is predicated.
	_, st2, err := Compile(build(), POWER5Stock(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.HammocksConverted != 0 || st2.MaxFolded != 0 {
		t.Errorf("stock/plain stats = %+v", st2)
	}
}

func TestPredicationShrinksBranchCount(t *testing.T) {
	// Compile the 3-way max kernel both ways and compare branchiness
	// of the generated code — Table II's first column in miniature.
	build := func() *ir.Func {
		b := ir.NewBuilder("max3", 3)
		x, y, z := b.Arg(0), b.Arg(1), b.Arg(2)
		m := b.Var(x)
		b.If(ir.CondOf(ir.CmpGT, y, m), func() { b.Assign(m, y) })
		b.If(ir.CondOf(ir.CmpGT, z, m), func() { b.Assign(m, z) })
		b.Ret(m)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	countCond := func(tgt Target, opts Options) int {
		prog, _, err := Compile(build(), tgt, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range prog.Code {
			if prog.Code[i].Op.Info().CondBr {
				n++
			}
		}
		return n
	}
	branchy := countCond(POWER5Stock(), Options{})
	predicated := countCond(Target{HasMax: true, HasISel: true}, DefaultOptions())
	if predicated >= branchy {
		t.Errorf("predicated code has %d conditional branches, branchy has %d", predicated, branchy)
	}
	if predicated != 0 {
		t.Errorf("fully predicable kernel still has %d conditional branches", predicated)
	}
}

func TestCompileRejectsHugeDisplacement(t *testing.T) {
	b := ir.NewBuilder("bigoff", 1)
	p := b.Arg(0)
	b.Ret(b.Load(ir.Mem64, p, 1<<20, true))
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compile(f, POWER5Stock(), Options{}); err == nil {
		t.Error("unencodable displacement accepted")
	}
}
