package ibpower_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// packageVars lists every package-level variable internal/ may declare,
// keyed "package.name", each with the reason it is not mutable shared
// state. Everything else a run needs lives in a value its caller owns, so
// concurrent runs in one process cannot see each other.
var packageVars = map[string]string{
	"predictor.factories":   "a registry.New name table: extended by Register (at init, and by tests) under its own lock",
	"topology.fabrics":      "a registry.New name table: extended by Register (at init, and by tests) under its own lock",
	"multijob.placements":   "a registry.New name table: extended by Register (at init, and by tests) under its own lock",
	"scenario.schedulers":   "a registry.New name table: extended by Register (at init, and by tests) under its own lock",
	"topology.paperOnce":    "guards the one build of the shared paper fabric",
	"topology.paperTopo":    "the paper fabric, immutable once built under paperOnce",
	"mpi.Sum":               "a reduction operator: a function value never reassigned",
	"mpi.Max":               "a reduction operator: a function value never reassigned",
	"mpi.Min":               "a reduction operator: a function value never reassigned",
	"trace.callNames":       "a constant table of MPI call names, only read",
	"workloads.registry":    "a constant table of the application models, only read",
	"harness.Displacements": "the paper's displacement factors, a constant list only read",
	"predictor._":           "a compile-time interface assertion; declares nothing",
}

// TestNoMutablePackageVars parses every non-test Go file under internal/ and
// fails on a package-level var the allowlist above does not name, and on an
// allowlist entry no file declares any more.
func TestNoMutablePackageVars(t *testing.T) {
	declared := map[string]string{} // package.name -> position
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					declared[f.Name.Name+"."+name.Name] = fset.Position(name.Pos()).String()
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no package-level var found under internal/; the walker is broken")
	}
	for key, pos := range declared {
		if _, ok := packageVars[key]; !ok {
			t.Errorf("%s: package-level var %s is not on the allowlist; move it into a value its caller owns, or list it with the reason it is not mutable shared state", pos, key)
		}
	}
	for key, reason := range packageVars {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist entry %s is declared nowhere under internal/; drop it", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}
