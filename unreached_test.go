package bioperf5

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed are the exported names under internal/ that only
// tests reach, and the exported fields that only tests write, that stay
// on purpose, each with the reason.
var testOnlyAllowed = map[string]string{
	"internal/ir.Interp":                           "reference interpreter the compiler's property tests compare against",
	"internal/ir.(*Builder).Div":                   "IR op the compiler lowers; random IR programs need it",
	"internal/ir.(*Builder).And":                   "IR op the compiler lowers; random IR programs need it",
	"internal/ir.(*Builder).Or":                    "IR op the compiler lowers; random IR programs need it",
	"internal/ir.(*Builder).Xor":                   "IR op the compiler lowers; random IR programs need it",
	"internal/ir.(*Builder).Shr":                   "IR op the compiler lowers; random IR programs need it",
	"internal/ir.(*Builder).Sar":                   "IR op the compiler lowers; random IR programs need it",
	"internal/branch.AlwaysTaken":                  "microbench generator for dissecting the predictors from outside",
	"internal/branch.Alternating":                  "microbench generator for dissecting the predictors from outside",
	"internal/branch.Loop":                         "microbench generator for dissecting the predictors from outside",
	"internal/branch.HistoryProbe":                 "microbench generator for dissecting the predictors from outside",
	"internal/branch.Biased":                       "microbench generator for dissecting the predictors from outside",
	"internal/branch.(*TAGE).HistoryLengths":       "exposes the geometric history series the predictor dissection reads",
	"internal/compiler.CountHammocks":              "oracle for the if-converter tests",
	"internal/compiler.CountOps":                   "oracle for the if-converter tests",
	"internal/isa.DecodeAll":                       "the inverse of EncodeAll the ISA round-trip tests check",
	"internal/kernels.VerifySWEndpoints":           "checks the simulated kernel's endpoint outputs against the Go forward pass",
	"internal/harness.Quick":                       "the one-seed configuration every shape test runs",
	"internal/trace.(*Iter).Rec":                   "materialises the current record for the trace, fuzz and golden tests",
	"internal/bio/clustal.(*MSA).Ungapped":         "lets the MSA test check that rows ungap to their inputs",
	"internal/bio/score.(*Matrix).Symmetric":       "checks the substitution tables are symmetric",
	"internal/workload.(*Result).DominantFunction": "Figure 1's headline quantity in the root benchmarks",
	"internal/isa.CR1":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/isa.CR2":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/isa.CR3":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/isa.CR4":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/isa.CR5":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/isa.CR6":                             "member of the register-file enum; deleting it renumbers LR, CTR and NumRegs",
	"internal/bio/seq.DNA":                         "the second alphabet the alphabet-mismatch tests reject",
	"internal/sched.Stats.Journaled":               "always 0: keeps journal_appends in the manifest bytes cluster/testdata/parent_manifest.json pins",
}

// interfaceMethods are the methods a type gets called through a standard
// library interface, so no identifier in the module names the call.
// Interfaces the module declares name their methods themselves.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteTo": true, "ReadFrom": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// unreachedExports lists the exported top-level functions, methods,
// types, consts and vars declared in the internal directory below root
// whose name no identifier in a non-test .go file below root
// references, and the exported fields of exported top-level struct
// types there that no such file writes, skipping testdata directories
// below root and the names in interfaceMethods.  Methods are reported
// as "internal/dir.(*T).Name" or "internal/dir.T.Name", fields as
// "internal/dir.T.Field", everything else as "internal/dir.Name".
//
// It matches identifiers by name alone, never comments: a use of
// another function with the same name hides an unreached one (a false
// negative), but a function some code calls is never reported, as long
// as the standard library calls it only through an interface listed in
// interfaceMethods.  Fields work the same way: writing any field named
// F, or any struct literal of a type named T without keys, counts as
// writing every field F, or every field of every struct T.  What
// counts as a write is listed at writes.
func unreachedExports(root string) ([]string, error) {
	type source struct {
		rel string
		f   *ast.File
	}
	var files []source
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, source{filepath.ToSlash(rel), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	type decl struct{ key, name, structName string }
	var decls, fields []decl
	declared := map[*ast.Ident]bool{}
	types := map[string]ast.Expr{} // every top-level type by name
	for _, src := range files {
		internal := strings.HasPrefix(src.rel+"/", "internal/")
		declare := func(id *ast.Ident, key string) {
			declared[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key, id.Name, ""})
			}
		}
		for _, d := range src.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := src.rel + "." + d.Name.Name
				if d.Recv != nil {
					key = src.rel + "." + receiver(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				declare(d.Name, key)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, src.rel+"."+spec.Name.Name)
						types[spec.Name.Name] = spec.Type
						st, ok := spec.Type.(*ast.StructType)
						if !ok || !internal || !spec.Name.IsExported() {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									key := src.rel + "." + spec.Name.Name + "." + id.Name
									fields = append(fields, decl{key, id.Name, spec.Name.Name})
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, src.rel+"."+id.Name)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	written := map[string]bool{}    // field names
	positional := map[string]bool{} // struct names of literals without keys
	for _, src := range files {
		ast.Inspect(src.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		writes(src.f, types, written, positional)
	}

	var out []string
	for _, d := range decls {
		if !used[d.name] && !interfaceMethods[d.name] {
			out = append(out, d.key)
		}
	}
	for _, d := range fields {
		if !written[d.name] && !positional[d.structName] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// writes records in written the name of every field f writes, and in
// positional the type name of every struct literal in f without keys.
// A write is a key in a composite literal, a selector chain on the left
// of an assignment or ++/--, under &, as the destination of copy or
// append, or as the receiver of a method call (x.F.M() may change F);
// every field a chain passes through counts, so a.B[i].C = v writes B
// and C, and copy(x.F[:], …) writes F.  Elided literals ({...} inside []T{...} or map[K]T{...}) take
// their type from the enclosing one, through types for named slices
// and maps.
func writes(f *ast.File, types map[string]ast.Expr, written, positional map[string]bool) {
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				written[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	elided := map[*ast.CompositeLit]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if (fun.Name == "copy" || fun.Name == "append") && len(n.Args) > 0 {
					chain(n.Args[0])
				}
			case *ast.SelectorExpr:
				chain(fun.X)
			}
		case *ast.CompositeLit:
			t := n.Type
			if t == nil {
				t = elided[n]
			}
			name := typeName(t)
			switch u := types[name]; u.(type) {
			case *ast.ArrayType, *ast.MapType:
				t = u
			}
			var key, elt ast.Expr
			switch x := t.(type) {
			case *ast.ArrayType:
				elt = x.Elt
			case *ast.MapType:
				key, elt = x.Key, x.Value
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						written[id.Name] = true
					}
					if c, ok := kv.Key.(*ast.CompositeLit); ok && c.Type == nil {
						elided[c] = key
					}
					e = kv.Value
				} else if elt == nil && name != "" {
					positional[name] = true
				}
				if c, ok := e.(*ast.CompositeLit); ok && c.Type == nil {
					elided[c] = elt
				}
			}
		}
		return true
	})
}

// typeName returns the name a type expression refers to (T, pkg.T, *T,
// T[P]), or "" for a type literal.
func typeName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// receiver renders a method's receiver type as "(*T)" or "T", dropping
// type parameters.
func receiver(t ast.Expr) string {
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// TestNoTestOnlyExports keeps internal/ free of exported code that only
// tests reach: every unreached export must be on testOnlyAllowed, and
// every entry there must still be an unreached export.
func TestNoTestOnlyExports(t *testing.T) {
	got, err := unreachedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string]bool{}
	for _, key := range got {
		unreached[key] = true
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s: only tests reach it; delete it, or add it to testOnlyAllowed with the reason it stays", key)
		}
	}
	for key := range testOnlyAllowed {
		if !unreached[key] {
			t.Errorf("%s: on testOnlyAllowed but no longer an unreached export; remove the entry", key)
		}
	}
}

func TestUnreachedExportsFixture(t *testing.T) {
	got, err := unreachedExports("testdata/unreached")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.Config.Idle", "internal/lib.Large", "internal/lib.Shape", "internal/lib.Spare", "internal/lib.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachedExports = %q, want %q", got, want)
	}
}
