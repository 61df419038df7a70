package compiler

import (
	"testing"

	"bioperf5/internal/ir"
	"bioperf5/internal/mem"
)

// interp is a shorthand for running a function under the IR interpreter.
func interp(t *testing.T, f *ir.Func, args ...int64) int64 {
	t.Helper()
	v, err := ir.Interp(f, mem.New(), args, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHoistConstsMovesLoopConstants(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	n := b.Arg(0)
	acc := b.Var(b.Const(0))
	b.ForRange(b.Const(0), n, 1, func(i ir.Reg) {
		b.Assign(acc, b.Add(acc, b.Const(7)))
	})
	b.Ret(acc)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := interp(t, f, 5)

	hoistConsts(f)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// All constants now live in the entry block.
	for bi, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.OpConst && bi != 0 {
				t.Errorf("const survives in non-entry block %s", blk.Name)
			}
		}
	}
	if after := interp(t, f, 5); after != before {
		t.Errorf("hoistConsts changed semantics: %d -> %d", before, after)
	}
	// Deduplication: the value 7 appears exactly once as a const.
	sevens := 0
	for i := range f.Entry().Instrs {
		in := &f.Entry().Instrs[i]
		if in.Op == ir.OpConst && in.Imm == 7 {
			sevens++
		}
	}
	if sevens != 1 {
		t.Errorf("const 7 materialized %d times", sevens)
	}
}

func TestHoistArgsCanonicalizes(t *testing.T) {
	b := ir.NewBuilder("f", 2)
	// Read arg 1 twice, in a non-entry position.
	x := b.Var(b.Const(0))
	b.If(ir.CondOf(ir.CmpGT, b.Arg(0), b.Const(0)), func() {
		b.Assign(x, b.Arg(1))
	})
	y := b.Arg(1)
	b.Ret(b.Add(x, y))
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := interp(t, f, 1, 21)

	hoistArgs(f)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	args := 0
	for bi, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.OpArg {
				args++
				if bi != 0 {
					t.Error("arg read outside entry")
				}
			}
		}
	}
	if args != 2 {
		t.Errorf("%d canonical arg reads, want 2 (deduplicated)", args)
	}
	if f.Entry().Instrs[0].Op != ir.OpArg {
		t.Error("args not at the very start of entry")
	}
	if after := interp(t, f, 1, 21); after != before {
		t.Errorf("hoistArgs changed semantics: %d -> %d", before, after)
	}
}

func TestCopyPropCollapsesChains(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	x := b.Arg(0)
	c1 := b.Var(x)  // copy
	c2 := b.Var(c1) // copy of copy
	b.Ret(b.Add(c2, c2))
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	copyProp(f)
	// The add now reads the argument register directly.
	var add *ir.Instr
	for i := range f.Entry().Instrs {
		if f.Entry().Instrs[i].Op == ir.OpAdd {
			add = &f.Entry().Instrs[i]
		}
	}
	if add == nil {
		t.Fatal("no add found")
	}
	if add.A != x || add.B != x {
		t.Errorf("copy chain not collapsed: add reads %s,%s want %s", add.A, add.B, x)
	}
}

func TestCopyPropRespectsRedefinition(t *testing.T) {
	// y = x; x = 99; ret y  — y must NOT be forwarded to the new x.
	b := ir.NewBuilder("f", 1)
	x := b.Var(b.Arg(0))
	y := b.Var(x)
	b.Assign(x, b.Const(99))
	b.Ret(y)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	copyProp(f)
	if got := interp(t, f, 7); got != 7 {
		t.Errorf("redefinition broke copyProp: got %d, want 7", got)
	}
}

func TestSinkCopiesCoalesces(t *testing.T) {
	b := ir.NewBuilder("f", 2)
	x, y := b.Arg(0), b.Arg(1)
	acc := b.Var(x)
	b.Assign(acc, b.Max(acc, y)) // t = max(acc,y); acc = t
	b.Ret(acc)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := interp(t, f, 3, 9)
	sinkCopies(f)
	// The copy after max is gone; max writes acc directly.
	maxes, copies := 0, 0
	for i := range f.Entry().Instrs {
		switch f.Entry().Instrs[i].Op {
		case ir.OpMax:
			maxes++
			if f.Entry().Instrs[i].Dst != acc {
				t.Error("max does not write the accumulator directly")
			}
		case ir.OpCopy:
			copies++
		}
	}
	if maxes != 1 {
		t.Fatalf("maxes = %d", maxes)
	}
	if copies != 2 { // the Var(x) init copies of acc and... arg canon not run; acc init only
		t.Logf("copies remaining = %d", copies)
	}
	if after := interp(t, f, 3, 9); after != before {
		t.Errorf("sinkCopies changed semantics: %d -> %d", before, after)
	}
}

func TestSinkCopiesRefusesMultiUse(t *testing.T) {
	// t = add(x,y); acc = t; ret t+acc — t has two uses, cannot sink.
	f := &ir.Func{Name: "f", NArgs: 2}
	blk := f.NewBlock("entry")
	a0, a1 := f.NewReg(), f.NewReg()
	tr, acc, sum := f.NewReg(), f.NewReg(), f.NewReg()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpArg, Dst: a0, Imm: 0},
		{Op: ir.OpArg, Dst: a1, Imm: 1},
		{Op: ir.OpAdd, Dst: tr, A: a0, B: a1},
		{Op: ir.OpCopy, Dst: acc, A: tr},
		{Op: ir.OpAdd, Dst: sum, A: tr, B: acc},
	}
	blk.Term = ir.Term{Kind: ir.TermRet, A: sum}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	want := interp(t, f, 4, 5)
	sinkCopies(f)
	if got := interp(t, f, 4, 5); got != want {
		t.Errorf("multi-use sink broke semantics: %d -> %d", want, got)
	}
}

func TestFoldImmediatesRewritesOps(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	x := b.Arg(0)
	v := b.Add(x, b.Const(5))       // -> addi
	v = b.Sub(v, b.Const(2))        // -> addi -2
	v = b.Mul(v, b.Const(3))        // -> mulli
	v = b.And(v, b.Const(0xFF))     // -> andi
	v = b.Or(v, b.Const(0x10))      // -> ori
	v = b.Xor(v, b.Const(0x3))      // -> xori
	v = b.Shl(v, b.Const(2))        // -> sldi
	v = b.Shr(v, b.Const(1))        // -> srdi
	v = b.Sar(v, b.Const(1))        // -> sradi
	big := b.Add(v, b.Const(1<<20)) // immediate too large: stays reg-reg
	b.Ret(big)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := interp(t, f, 11)
	foldImmediates(f)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	ops := CountOps(f)
	for _, o := range []ir.Op{ir.OpAddImm, ir.OpMulImm, ir.OpAndImm,
		ir.OpOrImm, ir.OpXorImm, ir.OpShlImm, ir.OpShrImm, ir.OpSarImm} {
		if ops[o] == 0 {
			t.Errorf("no %s produced", o)
		}
	}
	if ops[ir.OpAddImm] != 2 { // 5 and -2
		t.Errorf("addimm = %d, want 2", ops[ir.OpAddImm])
	}
	if ops[ir.OpAdd] != 1 { // the 1<<20 case survives
		t.Errorf("reg-reg add = %d, want 1 (out-of-range immediate)", ops[ir.OpAdd])
	}
	if got := interp(t, f, 11); got != want {
		t.Errorf("foldImmediates changed semantics: %d -> %d", want, got)
	}
}

func TestFoldImmediatesCondBr(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("f", 1)
		x := b.Arg(0)
		r := b.Var(b.Const(0))
		b.If(ir.CondOf(ir.CmpGT, x, b.Const(10)), func() {
			b.Assign(r, b.Const(1))
		})
		// Mirrored form: const on the left.
		b.If(ir.CondOf(ir.CmpLT, b.Const(3), x), func() {
			b.Assign(r, b.Add(r, b.Const(2)))
		})
		b.Ret(r)
		f, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, in := range []int64{0, 5, 11} {
		want := interp(t, build(), in)
		g := build()
		foldImmediates(g)
		if err := g.Verify(); err != nil {
			t.Fatal(err)
		}
		if got := interp(t, g, in); got != want {
			t.Errorf("f(%d): %d -> %d after folding", in, want, got)
		}
	}
	f := build()
	foldImmediates(f)
	immBranches := 0
	for _, blk := range f.Blocks {
		if blk.Term.Kind == ir.TermCondBr && blk.Term.B == ir.NoReg {
			immBranches++
		}
	}
	if immBranches != 2 {
		t.Errorf("%d immediate compares, want 2", immBranches)
	}
}

func TestMirrorCmp(t *testing.T) {
	cases := map[ir.CmpKind]ir.CmpKind{
		ir.CmpLT: ir.CmpGT, ir.CmpGT: ir.CmpLT,
		ir.CmpLE: ir.CmpGE, ir.CmpGE: ir.CmpLE,
		ir.CmpEQ: ir.CmpEQ, ir.CmpNE: ir.CmpNE,
	}
	for in, want := range cases {
		if got := mirrorCmp(in); got != want {
			t.Errorf("mirror(%s) = %s, want %s", in, got, want)
		}
		// a OP b == b mirror(OP) a for all values.
		for _, a := range []int64{-1, 0, 1} {
			for _, b := range []int64{-1, 0, 1} {
				if in.Eval(a, b) != mirrorCmp(in).Eval(b, a) {
					t.Errorf("mirror law broken for %s at (%d,%d)", in, a, b)
				}
			}
		}
	}
}

func TestDCERemovesDeadChains(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	x := b.Arg(0)
	dead1 := b.Add(x, b.Const(1))
	_ = b.Mul(dead1, dead1) // transitively dead
	b.Ret(x)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dce(f)
	ops := CountOps(f)
	if ops[ir.OpAdd] != 0 || ops[ir.OpMul] != 0 {
		t.Errorf("dead chain survives: %v", ops)
	}
	if got := interp(t, f, 42); got != 42 {
		t.Errorf("dce broke semantics: %d", got)
	}
}

func TestDCEKeepsStores(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	p := b.Arg(0)
	b.Store(ir.Mem64, p, 0, b.Const(9))
	b.Ret(p)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dce(f)
	if CountOps(f)[ir.OpStore] != 1 {
		t.Error("dce removed a store")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	b.Ret(b.Arg(0))
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	orphan := f.NewBlock("orphan")
	orphan.Term = ir.Term{Kind: ir.TermRet, A: ir.NoReg}
	removeUnreachable(f)
	for _, blk := range f.Blocks {
		if blk.Name == "orphan" {
			t.Error("unreachable block survived")
		}
	}
	// IDs are re-densified.
	for i, blk := range f.Blocks {
		if blk.ID != i {
			t.Errorf("block %s has ID %d at index %d", blk.Name, blk.ID, i)
		}
	}
}

func TestIfConvertNestedLoopsUntouchedStructure(t *testing.T) {
	// If-conversion must not break loop back-edges.
	b := ir.NewBuilder("f", 1)
	n := b.Arg(0)
	acc := b.Var(b.Const(0))
	b.ForRange(b.Const(0), n, 1, func(i ir.Reg) {
		b.If(ir.CondOf(ir.CmpGT, i, acc), func() {
			b.Assign(acc, i)
		})
	})
	b.Ret(acc)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := interp(t, f, 10)
	if n := IfConvert(f); n != 1 {
		t.Fatalf("converted %d", n)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := interp(t, f, 10); got != want {
		t.Errorf("loop hammock conversion broke semantics: %d -> %d", want, got)
	}
}

func TestLinearScanKeepsHotValuesInRegisters(t *testing.T) {
	// A function with a hot inner loop plus many cold outer values:
	// the loop-depth weighting must spill the cold ones.
	b := ir.NewBuilder("f", 1)
	n := b.Arg(0)
	var cold []ir.Reg
	for i := 0; i < 30; i++ {
		cold = append(cold, b.AddI(n, int64(1000+i)))
	}
	acc := b.Var(b.Const(0))
	b.ForRange(b.Const(0), n, 1, func(i ir.Reg) {
		b.Assign(acc, b.Add(acc, i))
	})
	// Consume the cold values after the loop so they stay live across it.
	sum := acc
	for _, c := range cold {
		sum = b.Add(sum, c)
	}
	b.Ret(sum)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	hoistConsts(f)
	hoistArgs(f)
	copyProp(f)
	foldImmediates(f)
	sinkCopies(f)
	dce(f)
	alloc, err := linearScan(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.slots) == 0 {
		t.Fatal("expected spills under this pressure")
	}
	// The loop accumulator and induction variable must not be spilled.
	lv := computeLiveness(f)
	_ = lv
	var loopBlk *ir.Block
	for _, blk := range f.Blocks {
		if blk.Depth > 0 && len(blk.Instrs) > 0 {
			loopBlk = blk
		}
	}
	if loopBlk == nil {
		t.Fatal("no loop body found")
	}
	for i := range loopBlk.Instrs {
		in := &loopBlk.Instrs[i]
		if in.Dst != ir.NoReg {
			if _, spilled := alloc.slots[in.Dst]; spilled {
				t.Errorf("hot loop value %s spilled", in.Dst)
			}
		}
	}
}
