package nonstopsql

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports names the exported functions and methods that may have no
// caller in a non-test file, each with its reason. A method is keyed by its
// name alone (methods are matched by name, see below), a function by its
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

// unsetOptions names the exported fields of option structs that only tests
// set, keyed by import path, type and field, each with the test and the
// claim it proves by setting it.
var unsetOptions = map[string]string{
	"nonstopsql/internal/dp.Config.TimeLimit":              "the paper's elapsed-time re-drive: TestTimeLimitRedrive proves a scan past its time limit replies with its progress and is re-driven",
	"nonstopsql/internal/wal.Config.BufferFullBytes":       "a flush the buffer starts: TestBufferFullTriggersFlush proves a full buffer flushes, and TestBufferFullFlushRunsOffTheLatch that a write's flush waits off its leaf latch",
	"nonstopsql/internal/cluster.Options.MaxRowsPerMsg":    "the re-drive protocol at test scale: TestConversationDriver and TestAggPushdownDifferential prove a many-message conversation returns what a one-message one does",
	"nonstopsql/internal/cluster.Options.SyncPerWrite":     "E18's baseline: TestE18FileVolumes proves batched-async volumes end with the same balances as sync-per-write ones, with fewer fsyncs",
	"nonstopsql/internal/cluster.Options.ReplicaTransport": "backups in a second server: TestWireReplicationDifferential proves a group whose backup is reached over TCP ends, takeover included, as an in-process one does",
	"nonstopsql/internal/disk/filevol.Config.MaxQueue":     "a full submission queue: TestSchedRace and TestReadsNeverSeeARecycledImage prove writers that fill a queue of 32 and of 4 blocks and wait for room lose no image (the default 256 never fills there)",
}

// TestEveryExportHasACaller fails when a function, method, constant or
// package-level variable exported from a non-test file of the module is
// referenced by no non-test file beyond its own declaration, or when an
// exported field of an option struct (a type whose name ends in Config or
// Options) is set by no non-test file outside its own package: a setting
// there is a default. cmd/, examples/ and benchmark/ count as callers;
// test files do not, so an export only a test calls belongs in that
// package's export_test.go, and an option only a test sets is a constant
// or an allowlist entry. Functions, constants, variables and fields are
// matched by their type-checked objects, so a field is told from a
// same-named field of another struct. A method is matched by its name
// through any selector, so it shares its callers with every method and
// field of that name: a call through an interface names no concrete
// method.
func TestEveryExportHasACaller(t *testing.T) {
	fset, pkgs := loadModule(t)
	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	selected := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[obj] = true
		}
		setField := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg().Path() != p.path {
				set[v] = true
			}
		}
		setSelected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil {
				setField(p.info.Selections[sel].Obj())
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if _, ok := p.info.Uses[id].(*types.PkgName); ok {
							return true
						}
					}
					selected[n.Sel.Name] = true
				case *ast.CompositeLit:
					var st *types.Struct
					if typ := p.info.TypeOf(n); typ != nil {
						st, _ = typ.Underlying().(*types.Struct)
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								setField(p.info.Uses[id])
							}
						} else if st != nil {
							setField(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setSelected(lhs)
					}
				case *ast.IncDecStmt:
					setSelected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSelected(n.X)
					}
				}
				return true
			})
		}
	}

	var dead []string
	report := func(pos token.Pos, key, what string, allowed map[string]string) {
		if _, ok := allowed[key]; !ok {
			dead = append(dead, fset.Position(pos).String()+": "+strings.TrimPrefix(key, "nonstopsql/")+" "+what)
		}
	}
	for _, p := range pkgs {
		if p.types.Name() == "main" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv != nil:
						if !selected[d.Name.Name] {
							report(d.Pos(), "."+d.Name.Name, "is exported and no non-test code calls it: delete it, or move it into its package's export_test.go", uncalledExports)
						}
					case !used[p.info.Defs[d.Name]]:
						report(d.Pos(), p.path+"."+d.Name.Name, "is exported and no non-test code calls it: delete it, or move it into its package's export_test.go", uncalledExports)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if name.IsExported() && !used[p.info.Defs[name]] {
									report(name.Pos(), p.path+"."+name.Name, "is exported and no non-test code reads it: delete it, or move it into its package's export_test.go", nil)
								}
							}
						case *ast.TypeSpec:
							st, ok := spec.Type.(*ast.StructType)
							if !ok || !spec.Name.IsExported() || !(strings.HasSuffix(spec.Name.Name, "Config") || strings.HasSuffix(spec.Name.Name, "Options")) {
								continue
							}
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.IsExported() && !set[p.info.Defs[name]] {
										report(name.Pos(), p.path+"."+spec.Name.Name+"."+name.Name, "is an option no non-test code outside its package sets: delete it and keep its default as a constant, or allowlist the test that sets it", unsetOptions)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// A modulePackage is one directory's non-test files, type-checked.
type modulePackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule parses the non-test files the default build context selects,
// in every directory of the repository (cmd/, examples/ and benchmark/
// included), and type-checks them package by package. Standard-library
// imports are empty packages: the guard reads only this module's own
// objects, so the errors that leaves are ignored, and the whole load takes
// well under a second where type-checking the standard library from source
// takes seconds.
func loadModule(t *testing.T) (*token.FileSet, []*modulePackage) {
	fset := token.NewFileSet()
	byPath := map[string]*modulePackage{}
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
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "nonstopsql"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		if byPath[pkg] == nil {
			byPath[pkg] = &modulePackage{path: pkg}
		}
		byPath[pkg].files = append(byPath[pkg].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	imp := &moduleImporter{fset: fset, pkgs: byPath}
	var pkgs []*modulePackage
	for path, p := range byPath {
		imp.Import(path)
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].path < pkgs[j].path })
	return fset, pkgs
}

// moduleImporter type-checks this module's packages on first import and
// answers every other import with an empty package.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*modulePackage
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		pkg := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		pkg.MarkComplete()
		return pkg, nil
	}
	if p.types == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: m, Error: func(error) {}}
		p.types, _ = conf.Check(path, m.fset, p.files, p.info)
	}
	return p.types, nil
}
