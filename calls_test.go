package ibpower_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// uncalledFuncs lists every function and method under internal/ that no
// program calls, keyed "package.Func" or "package.Type.Method", each with
// the reason it stays. Everything else under internal/ is reached from the
// commands, the examples, the facade or the benchmark, so code that loses its
// last caller goes with it.
var uncalledFuncs = map[string]string{
	"mpi.Comm.Send":                "mini-MPI runtime API: RunSPMD programs call it through the facade's Comm",
	"mpi.Comm.Recv":                "mini-MPI runtime API: RunSPMD programs call it through the facade's Comm",
	"mpi.Comm.Bcast":               "mini-MPI runtime API: RunSPMD programs call it through the facade's Comm",
	"mpi.Comm.Reduce":              "mini-MPI runtime API: RunSPMD programs call it through the facade's Comm",
	"mpi.Comm.Alltoall":            "mini-MPI runtime API: RunSPMD programs call it through the facade's Comm",
	"pmpi.WithPredictor":           "mini-MPI runtime API: the PowerLayer option that picks a registered predictor, as replay.Config.WithPredictor does for a replay",
	"topology.MustNamed":           "test constructor: Named for a fabric name known to be registered",
	"predictor.MustNew":            "test constructor: New for a configuration known to be valid",
	"trace.EncodeBinary":           "test constructor: an in-memory .ibt image for the decoder and file-source tests",
	"predictor.NGram.Predicting":   "test observation point: whether the power mode control component is active",
	"power.Controller.Mode":        "test observation point: the power mode at a given time",
	"network.Network.SerTime":      "test observation point: the serialization time the link model charges",
	"stats.P2Quantile.Add":         "test observation point: the standalone estimator is the reference the fused Sketch update is checked against",
	"stats.P2Quantile.Count":       "test observation point: the standalone estimator is the reference the fused Sketch update is checked against",
	"stats.Sketch.Add":             "test observation point: the checked entry tests feed; TimeSeries checks finiteness itself and calls add",
	"stats.TimeSeries.BucketCount": "test observation point: a bucket's sample count",
	"topology.LinkTable.IsUp":      "test observation point: a link's direction",
	"trace.Trace.NumOps":           "test observation point: the ops a trace holds",
	"trace.Trace.ComputeTime":      "test observation point: a rank's total computation time",
	"trace.Trace.RankBytes":        "test observation point: a rank's packed op encoding",
	"trace.Timeline.TimeIn":        "test observation point: the time a timeline spends in one link state",
	"trace.CallID.IsCollective":    "test observation point: the call classes the collective schedules cover",
	"registrytest.Run":             "test helper: the registry contract every registry's tests run",
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -export -deps -json ./...` in dir and returns the
// packages in dependency order.
func goList(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// sourceImporter returns the packages type-checked from source and reads
// the standard library from its export data.
type sourceImporter struct {
	src map[string]*types.Package
	std types.Importer
}

func (im sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.src[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// checkedPkg is one module package type-checked from source.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadProgram type-checks every non-test package of the root module and of
// bench/ from source, in one types universe: a method satisfies an interface
// of another package only when both come from the same check.
func loadProgram(t *testing.T, fset *token.FileSet) []checkedPkg {
	t.Helper()
	exports := map[string]string{}
	var order []listedPkg
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else {
				order = append(order, p)
			}
		}
	}
	im := sourceImporter{
		src: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, errors.New("no export data for " + path)
			}
			return os.Open(f)
		}),
	}
	var pkgs []checkedPkg
	for _, p := range order {
		if _, done := im.src[p.ImportPath]; done {
			continue // a root package bench/ depends on
		}
		cp := checkedPkg{info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		pkg, err := (&types.Config{Importer: im}).Check(p.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		cp.pkg = pkg
		im.src[p.ImportPath] = pkg
		pkgs = append(pkgs, cp)
	}
	return pkgs
}

// funcKey names a function "package.Func" and a method "package.Type.Method".
func funcKey(f *types.Func) string {
	key := f.Pkg().Name() + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + f.Name()
}

// interfaceTypes collects every interface with methods that t mentions.
func interfaceTypes(t types.Type, seen map[types.Type]bool, out *[]*types.Interface) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		interfaceTypes(types.Unalias(t), seen, out)
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			interfaceTypes(it, seen, out)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			interfaceTypes(t.TypeArgs().At(i), seen, out)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			*out = append(*out, t)
		}
		for i := 0; i < t.NumMethods(); i++ {
			interfaceTypes(t.Method(i).Type(), seen, out)
		}
	case *types.Pointer:
		interfaceTypes(t.Elem(), seen, out)
	case *types.Slice:
		interfaceTypes(t.Elem(), seen, out)
	case *types.Array:
		interfaceTypes(t.Elem(), seen, out)
	case *types.Chan:
		interfaceTypes(t.Elem(), seen, out)
	case *types.Map:
		interfaceTypes(t.Key(), seen, out)
		interfaceTypes(t.Elem(), seen, out)
	case *types.Signature:
		interfaceTypes(t.Params(), seen, out)
		interfaceTypes(t.Results(), seen, out)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			interfaceTypes(t.At(i).Type(), seen, out)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			interfaceTypes(t.Field(i).Type(), seen, out)
		}
	}
}

// TestEveryInternalFuncIsCalled fails on a function or method under
// internal/ that no program calls and the allowlist above does not name, and
// on an allowlist entry that is now called or declared nowhere. Programs are
// every non-test package of both modules: the facade, cmd/, examples/,
// internal/ and bench/. A function counts as called when program code
// outside its own body references it, or when it implements a method of an
// interface type that program code mentions, declared or written inline.
func TestEveryInternalFuncIsCalled(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	fset := token.NewFileSet()
	pkgs := loadProgram(t, fset)

	type decl struct {
		key        string
		pos        token.Pos
		start, end token.Pos // the declaration, whose own references do not count
	}
	decls := map[*types.Func]decl{}
	for _, p := range pkgs {
		if !strings.Contains(p.pkg.Path()+"/", "/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				decls[fn] = decl{funcKey(fn), fd.Name.Pos(), fd.Pos(), fd.End()}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no function found under internal/; the scan is broken")
	}

	called := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if d, ok := decls[fn]; ok && (id.Pos() < d.start || id.Pos() >= d.end) {
					called[fn] = true
				}
			}
		}
		for _, tv := range p.info.Types {
			interfaceTypes(tv.Type, seen, &ifaces)
		}
		// fmt.Stringer and its like are called by the package that
		// declares them, so a package's imports count as program code.
		for _, imp := range append(p.pkg.Imports(), p.pkg) {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					interfaceTypes(tn.Type(), seen, &ifaces)
				}
			}
		}
	}
	// A method is called through an interface when its type, or a pointer
	// to it, implements an interface that has the method.
	for _, p := range pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces {
				var recv types.Type = n
				if !types.Implements(recv, it) {
					if recv = types.NewPointer(n); !types.Implements(recv, it) {
						continue
					}
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						called[fn.Origin()] = true
					}
				}
			}
		}
	}

	declared := map[string]bool{}
	for fn, d := range decls {
		declared[d.key] = true
		_, listed := uncalledFuncs[d.key]
		switch {
		case called[fn] && listed:
			t.Errorf("allowlist entry %s is called now; drop it", d.key)
		case !called[fn] && !listed:
			t.Errorf("%s: %s is called by no program; delete it, or list it with the reason it stays", fset.Position(d.pos), d.key)
		}
	}
	for key, reason := range uncalledFuncs {
		if !declared[key] {
			t.Errorf("allowlist entry %s is declared nowhere under internal/; drop it", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}
