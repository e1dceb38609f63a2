package ibpower_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads .github/workflows/ci.yml and requires
// every alternative of a go test -run, -bench or -fuzz pattern to match at
// least one function of that kind declared in the step's packages: -run
// selects Test, Fuzz and Example functions, -bench Benchmark functions and
// -fuzz Fuzz functions. An alternative that matches nothing is dead text
// that reads as coverage. The scan is static (go/parser over the _test.go
// files), so it needs no toolchain call. An alternative matching the empty
// name, such as the deliberate "^$", is not checked.
func TestCIRunPatternsMatchTests(t *testing.T) {
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	for _, st := range ciSteps(t, ".github/workflows/ci.yml") {
		dir := "."
		for _, cmd := range regexp.MustCompile(`&&|;|\n`).Split(st.run, -1) {
			words := strings.Fields(cmd)
			for len(words) > 0 && strings.Contains(words[0], "=") { // env assignments
				words = words[1:]
			}
			if len(words) == 2 && words[0] == "cd" {
				dir = filepath.Join(dir, words[1])
				continue
			}
			if len(words) < 2 || words[0] != "go" || words[1] != "test" {
				continue
			}
			patterns := map[string]string{}
			var pkgs []string
			for j := 2; j < len(words); j++ {
				w := words[j]
				if !strings.HasPrefix(w, "-") {
					if strings.HasPrefix(w, ".") {
						pkgs = append(pkgs, w)
					}
					continue
				}
				flag, val, hasVal := strings.Cut(w, "=")
				if _, ok := kinds[flag]; !ok {
					continue
				}
				if !hasVal && j+1 < len(words) {
					j++
					val = words[j]
				}
				patterns[flag] = strings.Trim(val, `'"`)
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			funcs := declaredTestFuncs(t, dir, pkgs)
			for flag, pat := range patterns {
				for _, alt := range topLevelAlternatives(pat) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("step %q: %s alternative %q: %v", st.name, flag, alt, err)
						continue
					}
					if re.MatchString("") {
						continue
					}
					checked++
					if !matchesAny(re, funcs, kinds[flag]) {
						t.Errorf("step %q: %s alternative %q matches no %s function in %s",
							st.name, flag, alt, strings.Join(kinds[flag], "/"), strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run/-bench/-fuzz pattern in ci.yml")
	}
}

// ciStep is one workflow step's name and run script.
type ciStep struct{ name, run string }

// ciSteps returns every step of a workflow file that has a run key, with
// the name key seen last before it. A block scalar ("run: |") collects the
// more-indented lines that follow.
func ciSteps(t *testing.T, path string) []ciStep {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	lines := strings.Split(string(data), "\n")
	var steps []ciStep
	name := ""
	for i := 0; i < len(lines); i++ {
		line := strings.TrimPrefix(strings.TrimSpace(lines[i]), "- ")
		if v, ok := strings.CutPrefix(line, "name:"); ok {
			name = strings.TrimSpace(v)
			continue
		}
		v, ok := strings.CutPrefix(line, "run:")
		if !ok {
			continue
		}
		run := strings.TrimSpace(v)
		if run == "|" || run == ">" {
			var block []string
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || indent(lines[i+1]) > indent(lines[i])) {
				i++
				block = append(block, lines[i])
			}
			run = strings.Join(block, "\n")
		}
		steps = append(steps, ciStep{name: name, run: run})
	}
	return steps
}

// declaredTestFuncs returns the names of the top-level functions declared in
// the _test.go files of the given package patterns, relative to dir. A
// pattern ending in "/..." covers every directory below it except testdata,
// hidden directories and nested modules, as go test does.
func declaredTestFuncs(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		root = filepath.Join(dir, root)
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	var names []string
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// topLevelAlternatives splits the first level of a go test pattern (the
// part before a "/" subtest separator) at each "|" outside brackets and
// parentheses.
func topLevelAlternatives(pat string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/', '|':
			if depth > 0 {
				continue
			}
			alts = append(alts, pat[start:i])
			if c == '/' {
				return alts
			}
			start = i + 1
		}
	}
	return append(alts, pat[start:])
}

// matchesAny reports whether re matches a name carrying one of prefixes.
func matchesAny(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
