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

// TestOnlyPredictorCallsOnCall keeps Algorithm 3 written once: outside
// internal/predictor, no non-test file under internal/ or cmd/ may call a
// predictor's OnCall itself. Every intercepted call ends through
// predictor.Exit, which observes the call, charges the PPA and arms the wake
// timer in one place. The scan parses call expressions, so comments naming
// OnCall do not count.
func TestOnlyPredictorCallsOnCall(t *testing.T) {
	files := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "predictor") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "OnCall" {
						t.Errorf("%s calls OnCall; end the call through predictor.Exit", fset.Position(call.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 20 {
		t.Fatalf("only %d files scanned; the walk is broken", files)
	}
}
