package ibpower_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdRef matches a markdown-file reference (repo-root relative) inside a
// comment, such as the design and experiments documents.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestDocCommentMarkdownRefsExist walks every Go file in the repository and
// asserts that each *.md file referenced from a comment exists. The seed
// shipped doc comments pointing at DESIGN.md and EXPERIMENTS.md that were
// never written; this test keeps such references from dangling again.
func TestDocCommentMarkdownRefsExist(t *testing.T) {
	refs := map[string][]string{} // md path -> referring file:line sites
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "//")
			if idx < 0 {
				continue
			}
			for _, m := range mdRef.FindAllString(text[idx:], -1) {
				refs[m] = append(refs[m], path+":"+strconv.Itoa(line))
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no markdown references found; the scanner is broken")
	}
	for ref, sites := range refs {
		if _, err := os.Stat(ref); err != nil {
			t.Errorf("%s referenced from Go comments does not exist (referenced at %s)",
				ref, strings.Join(sites, ", "))
		}
	}
}

// entryRef matches a backticked `pkg.Ident` or `Type.Member` reference in a
// DESIGN.md table cell.
var entryRef = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)\\.([A-Za-z_][A-Za-z0-9_]*)`")

// TestDesignIndexEntryPointsExist checks that every entry point DESIGN.md's
// experiment index names is still declared. A lower-case qualifier is a
// package under internal/ that must declare the exported identifier; an
// upper-case one is a type, in any internal package, that must carry the
// member as a method, struct field or interface method. Cells that are not
// such references (`cmd ppa`, `internal/dvs`) are skipped. Parsing only, no
// type-checking.
func TestDesignIndexEntryPointsExist(t *testing.T) {
	decls, members := internalDecls(t)
	checked := 0
	for _, cell := range designIndexColumn(t, "Entry point") {
		for _, m := range entryRef.FindAllStringSubmatch(cell, -1) {
			qual, name := m[1], m[2]
			checked++
			if qual[0] >= 'a' && qual[0] <= 'z' {
				if !token.IsExported(name) || !decls[qual][name] {
					t.Errorf("DESIGN.md §7 names %s.%s: no exported declaration in internal/%s", qual, name, qual)
				}
			} else if !members[qual][name] {
				t.Errorf("DESIGN.md §7 names %s.%s: no type %s with member %s in internal/", qual, name, qual, name)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d entry-point references found; the table parser is broken", checked)
	}
}

// expID matches an experiment ID or range (E3–E5) in a DESIGN.md §7 cell;
// expHeading an `## E<n>` section heading of EXPERIMENTS.md.
var (
	expID      = regexp.MustCompile(`E(\d+)(?:–E(\d+))?`)
	expHeading = regexp.MustCompile(`(?m)^## E(\d+)\b`)
)

// TestDesignIndexCoversExperiments checks that every `## E<n>` section of
// EXPERIMENTS.md has a row in DESIGN.md §7, so the index cannot skip an
// experiment.
func TestDesignIndexCoversExperiments(t *testing.T) {
	indexed := map[int]bool{}
	for _, cell := range designIndexColumn(t, "ID") {
		for _, m := range expID.FindAllStringSubmatch(cell, -1) {
			lo, _ := strconv.Atoi(m[1])
			hi := lo
			if m[2] != "" {
				hi, _ = strconv.Atoi(m[2])
			}
			for n := lo; n <= hi; n++ {
				indexed[n] = true
			}
		}
	}
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := expHeading.FindAllStringSubmatch(string(data), -1)
	if len(headings) < 10 {
		t.Fatalf("only %d E<n> sections found in EXPERIMENTS.md; the heading scan is broken", len(headings))
	}
	for _, m := range headings {
		if n, _ := strconv.Atoi(m[1]); !indexed[n] {
			t.Errorf("EXPERIMENTS.md has section E%d but DESIGN.md §7 has no row for it", n)
		}
	}
}

// designIndexColumn returns the named column of DESIGN.md §7.
func designIndexColumn(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	in := false
	col := -1
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 7. Experiment index")
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		fields := strings.Split(strings.Trim(line, "|"), "|")
		if col < 0 {
			for i, f := range fields {
				if strings.TrimSpace(f) == name {
					col = i
				}
			}
			continue
		}
		if col < len(fields) && !strings.HasPrefix(strings.TrimSpace(fields[col]), "---") {
			cells = append(cells, fields[col])
		}
	}
	if col < 0 {
		t.Fatalf("DESIGN.md §7 has no %s column", name)
	}
	return cells
}

// internalDecls parses every non-test file under internal/ and returns each
// package's top-level identifiers, plus each type name's methods, struct
// fields and interface methods.
func internalDecls(t *testing.T) (decls, members map[string]map[string]bool) {
	t.Helper()
	decls = map[string]map[string]bool{}
	members = map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("internal", d.Name()),
			func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						if decl.Recv == nil {
							add(decls, d.Name(), decl.Name.Name)
							continue
						}
						typ := decl.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							add(members, id.Name, decl.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									add(decls, d.Name(), n.Name)
								}
							case *ast.TypeSpec:
								add(decls, d.Name(), spec.Name.Name)
								var fields *ast.FieldList
								switch typ := spec.Type.(type) {
								case *ast.StructType:
									fields = typ.Fields
								case *ast.InterfaceType:
									fields = typ.Methods
								}
								if fields == nil {
									continue
								}
								for _, fld := range fields.List {
									for _, n := range fld.Names {
										add(members, spec.Name.Name, n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return decls, members
}
