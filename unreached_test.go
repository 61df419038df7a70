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
// tests reach and that stay on purpose, each with the reason.
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
	"internal/trace.Decodes":                       "counts trace decodes for the store tests until traces have one representation",
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
// references, skipping testdata directories below root and the names
// in interfaceMethods.  Methods are reported as "internal/dir.(*T).Name"
// or "internal/dir.T.Name", everything else as "internal/dir.Name".
//
// It matches identifiers by name alone, never comments: a use of
// another function with the same name hides an unreached one (a false
// negative), but a function some code calls is never reported, as long
// as the standard library calls it only through an interface listed in
// interfaceMethods.
func unreachedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	type decl struct{ key, name string }
	var decls []decl
	used := map[string]bool{}
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
		rel = filepath.ToSlash(rel)
		declared := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(rel+"/", "internal/")
		declare := func(id *ast.Ident, key string) {
			declared[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key, id.Name})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := rel + "." + d.Name.Name
				if d.Recv != nil {
					key = rel + "." + receiver(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				declare(d.Name, key)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, rel+"."+spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, rel+"."+id.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] && !interfaceMethods[d.name] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
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
	want := []string{"internal/lib.Large", "internal/lib.Shape", "internal/lib.Spare", "internal/lib.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachedExports = %q, want %q", got, want)
	}
}
