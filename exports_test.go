package nonstopsql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExports names the exported functions and methods that may have no
// caller in a non-test file, each with its reason. A method is keyed by its
// name alone (the walk below reads syntax, not types), a function by its
// package's import path and name.
var uncalledExports = map[string]string{
	// Methods the standard library calls through an interface.
	".Error":  "the error interface",
	".String": "fmt.Stringer",
	".Unwrap": "errors.Is and errors.As",
	".Is":     "errors.Is",

	// Paper mechanisms a test proves, with no production caller yet.
	".SetFollowerReads": "fs: browse reads served by a group's backup; TestE21ReplicatedTakeover reads through it in the takeover window",
	".DeleteCurrent":    "fs.Cursor: the one sender of DELETE^BLOCK, the kind the File System's set-oriented index maintenance is to send",

	// fsdp's DecodeRequest and EncodeReply and nsqlwire's four codec
	// wrappers need no entry: benchmark/layers.go calls them, and the
	// benchmark counts as a caller.
}

// TestEveryExportHasACaller fails when a function or method exported from
// a non-test file of the module is referenced by no non-test file beyond
// its own declaration. cmd/, examples/ and benchmark/ count as callers;
// test files do not, so an export only a test calls belongs in that
// package's export_test.go. References are matched by name: a
// package-level function by import path and name, a method by its name
// through any selector, so a method shares its callers with every method
// and field of the same name.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "nonstopsql"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || f.Name.Name == "main" {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						refs[p+"."+n.Sel.Name] = true
						return false
					}
				}
				refs["."+n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					refs[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if _, ok := uncalledExports[d.key]; !ok && !refs[d.key] {
			dead = append(dead, d.pos.String()+": "+strings.TrimPrefix(d.key, "nonstopsql/"))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported and no non-test code calls it: delete it, or move it into its package's export_test.go", d)
	}
}
