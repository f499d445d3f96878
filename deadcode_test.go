package mtprefetch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedFunctions is the dead-code gate: every unexported
// function or method declared in a non-test file of this module must be
// named by some identifier in its own directory other than its
// declaration. Test files count as references; main, init and _ are
// entry points. Names are matched per directory, not resolved, so a
// method that shares its name with a used one passes. Directories the
// go tool skips (".", "_" prefixes, testdata) and nested modules such
// as bench/ are not scanned.
func TestNoUnreferencedFunctions(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	fset := token.NewFileSet()
	decls := map[string][]decl{}         // dir -> unexported funcs declared in non-test files
	refs := map[string]map[string]bool{} // dir -> identifier names used outside declarations
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if n := d.Name(); strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if refs[dir] == nil {
			refs[dir] = map[string]bool{}
		}
		declared := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			n := fn.Name.Name
			if ast.IsExported(n) || n == "main" || n == "init" || n == "_" || strings.HasSuffix(path, "_test.go") {
				continue
			}
			decls[dir] = append(decls[dir], decl{n, fset.Position(fn.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[dir][id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for dir, ds := range decls {
		for _, d := range ds {
			if !refs[dir][d.name] {
				dead = append(dead, d.pos.String()+": "+d.name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is never referenced; delete it", d)
	}
}
