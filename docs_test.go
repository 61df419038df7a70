package bioperf5

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameThePackages holds DESIGN.md §3's package tables and
// README.md's internal/ map to the package directories under internal/.
func TestDocsNameThePackages(t *testing.T) {
	pkgs := internalPackages(t)
	design := section(t, "DESIGN.md", "## 3.", "## 4.")
	var tables []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(internal/[^`]+)` \\|").FindAllStringSubmatch(design, -1) {
		tables = append(tables, m[1])
	}
	sameNames(t, "DESIGN.md §3's package tables", tables, pkgs)
	sameNames(t, "README.md's internal/ map", readmeMap(t), pkgs)
}

// TestREADMEListsTheCommands holds README.md's command reference to the
// commands `bioperf5` prints when run without arguments, and those to
// the commands it dispatches.
func TestREADMEListsTheCommands(t *testing.T) {
	printed, dispatched := cliCommands(t)
	sameNames(t, "the usage text's commands", printed, dispatched)
	var readme []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)").FindAllStringSubmatch(section(t, "README.md", "## Commands", "\n## "), -1) {
		readme = append(readme, m[1])
	}
	sameNames(t, "README.md's command reference", readme, printed)
}

// sameNames fails with the names want has and got lacks, and the names
// got has and want lacks.
func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	diff := func(a, b []string) []string {
		in := map[string]bool{}
		for _, s := range b {
			in[s] = true
		}
		var out []string
		for _, s := range a {
			if !in[s] {
				out = append(out, s)
			}
		}
		sort.Strings(out)
		return out
	}
	if missing, extra := diff(want, got), diff(got, want); len(missing)+len(extra) > 0 {
		t.Errorf("%s: missing %v, extra %v", what, missing, extra)
	}
}

// section returns the text of file from the first line starting with
// from up to the next occurrence of to.
func section(t *testing.T, file, from, to string) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	i := strings.Index(s, "\n"+from)
	if i < 0 {
		t.Fatalf("%s has no section %q", file, from)
	}
	s = s[i+1:]
	if j := strings.Index(s[len(from):], to); j >= 0 {
		s = s[:len(from)+j]
	}
	return s
}

// internalPackages lists the directories under internal/ that hold Go
// files, outside testdata.
func internalPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			seen[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// readmeMap reads the indented tree under the "internal/" line of
// README.md's Architecture section: two spaces per level, one entry per
// line, the name ending in '/'.  A line more deeply indented than a
// name, without one, continues that entry's description.
func readmeMap(t *testing.T) []string {
	t.Helper()
	arch := section(t, "README.md", "## Architecture", "\n## ")
	i := strings.Index(arch, "\ninternal/\n")
	if i < 0 {
		t.Fatal("README.md's Architecture section has no internal/ tree")
	}
	entry := regexp.MustCompile(`^( +)([a-z0-9_]+)/`)
	var pkgs, path []string
	for _, line := range strings.Split(arch[i+len("\ninternal/\n"):], "\n") {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		depth := len(m[1])/2 - 1
		if depth > len(path) {
			t.Fatalf("README.md's internal/ tree skips a level at %q", line)
		}
		path = append(path[:depth], m[2])
		// A directory with children is only a prefix; it is a package
		// only if it lists no children, which the next lines decide.
		pkgs = append(pkgs, "internal/"+strings.Join(path, "/"))
	}
	var leaves []string
	for i, p := range pkgs {
		if i+1 < len(pkgs) && strings.HasPrefix(pkgs[i+1], p+"/") {
			continue
		}
		leaves = append(leaves, p)
	}
	return leaves
}

// cliCommands returns the command names cmd/bioperf5's usage text
// prints and the keys of its commands table, read from the source.
func cliCommands(t *testing.T) (printed, dispatched []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "bioperf5", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name != "usage" {
				return false
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING || !strings.Contains(n.Value, "commands") {
				return true
			}
			text, err := strconv.Unquote(n.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range regexp.MustCompile(`(?m)^  ([a-z]+)\b`).FindAllStringSubmatch(text, -1) {
				printed = append(printed, m[1])
			}
		case *ast.ValueSpec:
			if len(n.Names) != 1 || n.Names[0].Name != "commands" {
				return false
			}
			for _, el := range n.Values[0].(*ast.CompositeLit).Elts {
				key, err := strconv.Unquote(el.(*ast.KeyValueExpr).Key.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				dispatched = append(dispatched, key)
			}
		}
		return true
	})
	if len(printed) == 0 || len(dispatched) == 0 {
		t.Fatalf("found no commands in cmd/bioperf5/main.go: printed %v, dispatched %v", printed, dispatched)
	}
	return printed, dispatched
}
