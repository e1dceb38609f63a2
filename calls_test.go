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
	"reflect"
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
	"topology.MustNamed":           "test constructor: Named for a fabric name known to be registered",
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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// digestHashed is the reason a field no program reads stays while the
// benchmark's seed-42 digests pin it: bench/digest.go prints its struct
// whole into a digest, so deleting it changes a pinned digest string, though
// no simulated number. The test checks that a bench/ fmt call reaches every
// field listed for this reason.
const digestHashed = "digest-hashed: deleting it re-pins a seed-42 bench digest, so it goes with the change that re-pins them"

// unreadFields lists every struct field under internal/ that no program
// reads, keyed "package.Type.Field" (an embedded field by its type's name),
// each with the reason it stays. A field nothing reads is state a run pays to
// keep, or a knob that changes nothing, so it goes with its writes.
var unreadFields = map[string]string{
	"harness.FigureRow.LowFraction":       digestHashed,
	"multijob.JobStats.Transfers":         digestHashed,
	"multijob.JobStats.BytesMoved":        digestHashed,
	"multijob.ChurnJob.Wasted":            digestHashed,
	"predictor.Stats.PPAInvocations":      digestHashed,
	"predictor.Stats.Shutdowns":           digestHashed,
	"predictor.Stats.PredictedIdle":       digestHashed,
	"replay.Result.TotalDelay":            digestHashed,
	"ngram.DetectorStats.GramsFormed":     digestHashed,
	"ngram.DetectorStats.Invocations":     digestHashed,
	"ngram.DetectorStats.Reactivations":   digestHashed,
	"ngram.DetectorStats.Mispredictions":  digestHashed,
	"ngram.DetectorStats.WildcardGrams":   digestHashed,
	"ngram.DetectorStats.PredictedGrams":  digestHashed,
	"ngram.DetectorStats.PatternListSize": digestHashed,
	"multijob.SchedContext.Now":           "scheduler contract: written for schedulers an embedding program registers; no built-in policy needs it",
	"multijob.SchedContext.Fabric":        "scheduler contract: written for schedulers an embedding program registers; no built-in policy needs it",
	"multijob.SchedContext.Down":          "scheduler contract: written for schedulers an embedding program registers; no built-in policy needs it",
	"predictor.OfflineResult.Runs":        "test observation point: the rank runs a grid point paid, which the grid-sharing tests bound and BenchmarkTableIII_GTChoice reports",
}

// fieldSel strips parentheses and returns e as a field selection and the
// field it selects, or nil.
func fieldSel(info *types.Info, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	se, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := info.Selections[se]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	return se, s.Obj().(*types.Var).Origin()
}

// readEmbedded marks the embedded fields a promoted selection of a field or
// method from recv passes through as read.
func readEmbedded(recv types.Type, index []int, read map[*types.Var]bool) {
	for _, i := range index[:len(index)-1] {
		if ptr, ok := recv.Underlying().(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		f := recv.Underlying().(*types.Struct).Field(i)
		read[f.Origin()] = true
		recv = f.Type()
	}
}

// readAll marks every field a value of type t carries as read, through
// pointers, slices, arrays, maps and nested structs, as an encoder or a
// struct comparison reads them. It stops at a type that implements one of
// stop, whose method does the encoding instead, and with exportedOnly skips
// the unexported fields and those tagged `json:"-"`, as encoding/json does.
func readAll(t types.Type, stop []*types.Interface, exportedOnly bool, read map[*types.Var]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	for _, it := range stop {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		readAll(u.Elem(), stop, exportedOnly, read, seen)
	case *types.Slice:
		readAll(u.Elem(), stop, exportedOnly, read, seen)
	case *types.Array:
		readAll(u.Elem(), stop, exportedOnly, read, seen)
	case *types.Map:
		readAll(u.Key(), stop, exportedOnly, read, seen)
		readAll(u.Elem(), stop, exportedOnly, read, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if exportedOnly && (!f.Exported() || reflect.StructTag(u.Tag(i)).Get("json") == "-") {
				continue
			}
			read[f.Origin()] = true
			readAll(f.Type(), stop, exportedOnly, read, seen)
		}
	}
}

// readMapKeys marks every field of a struct that keys a map reachable from t
// as read: hashing and comparing a key reads all of it. It descends into
// the fields of instantiated generic types, whose maps may be keyed by a
// type argument.
func readMapKeys(t types.Type, read map[*types.Var]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if u.TypeArgs().Len() > 0 {
			readMapKeys(u.Underlying(), read, seen)
		}
	case *types.Pointer:
		readMapKeys(u.Elem(), read, seen)
	case *types.Slice:
		readMapKeys(u.Elem(), read, seen)
	case *types.Map:
		if _, ok := u.Key().Underlying().(*types.Struct); ok {
			readAll(u.Key(), nil, false, read, map[types.Type]bool{})
		}
		readMapKeys(u.Elem(), read, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			readMapKeys(u.Field(i).Type(), read, seen)
		}
	}
}

// TestEveryInternalFieldIsRead fails on a struct field under internal/ that
// no program reads and the allowlist above does not name, and on an
// allowlist entry that is now read, declared nowhere or gives no reason.
// Programs are the non-test packages of both modules, as for
// TestEveryInternalFuncIsCalled. A field counts as read when program code
// selects it anywhere but as the target of an assignment or an increment,
// and outside the right-hand side of an assignment to that same field, so a
// counter that only its own update reads is unread. A promoted selection,
// or a promoted method in its struct's method set, reads the embedded fields
// on its path. A field is also read when a root-module call into fmt or
// encoding/json takes a value that holds it, or when its struct is compared
// with == or != or keys a map. The bench/ module's fmt calls do not count:
// its digests hash whole structs to catch any change in a simulated number,
// which shows that a field is hashed, not that it is used. An entry listed
// as digestHashed fails unless such a call reaches its field.
func TestEveryInternalFieldIsRead(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	fset := token.NewFileSet()
	pkgs := loadProgram(t, fset)

	type decl struct {
		key string
		pos token.Pos
	}
	decls := map[*types.Var]decl{}
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.pkg.Path()+"/", "/internal/") {
			continue
		}
		for _, f := range p.files {
			names := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						names[st] = p.pkg.Name() + "." + ts.Name.Name
					}
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				name, ok := names[st]
				if !ok {
					name = p.pkg.Name() + ".struct"
				}
				for _, fld := range st.Fields.List {
					idents := fld.Names
					if len(idents) == 0 { // embedded: its type's name declares it
						e := fld.Type
						if se, ok := e.(*ast.StarExpr); ok {
							e = se.X
						}
						if se, ok := e.(*ast.SelectorExpr); ok {
							e = se.Sel
						}
						idents = []*ast.Ident{e.(*ast.Ident)}
					}
					for _, id := range idents {
						if id.Name == "_" {
							continue
						}
						key := name + "." + id.Name
						decls[p.info.Defs[id].(*types.Var)] = decl{key, id.Pos()}
						ast.Inspect(fld.Type, func(n ast.Node) bool {
							if inner, ok := n.(*ast.StructType); ok {
								names[inner] = key
								return false
							}
							return true
						})
					}
				}
				return true
			})
		}
		// A method promoted into a struct's method set may be called
		// through an interface, with no selector naming it.
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					readEmbedded(ms.At(i).Recv(), ms.At(i).Index(), read)
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no struct field found under internal/; the scan is broken")
	}

	fmtStop := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[types.Type]bool{}
	hashed, hashSeen := map[*types.Var]bool{}, map[types.Type]bool{} // fields bench/ prints
	keySeen := map[types.Type]bool{}
	for _, p := range pkgs {
		root := !strings.HasPrefix(p.pkg.Path(), "ibpower/bench")
		for _, imp := range p.pkg.Imports() {
			if imp.Path() == "fmt" && len(fmtStop) == 1 {
				fmtStop = append(fmtStop, imp.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
			}
		}
		// visit marks the reads under n; reads of self, the field the
		// enclosing assignment writes, do not count.
		var visit func(n ast.Node, self *types.Var)
		visit = func(n ast.Node, self *types.Var) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						target := self
						if se, f := fieldSel(p.info, lhs); f != nil {
							s := p.info.Selections[se]
							readEmbedded(s.Recv(), s.Index(), read)
							visit(se.X, self)
							target = f
						} else {
							visit(lhs, self)
						}
						switch {
						case len(n.Lhs) == len(n.Rhs):
							visit(n.Rhs[i], target)
						case i == 0:
							for _, rhs := range n.Rhs {
								visit(rhs, self)
							}
						}
					}
					return false
				case *ast.IncDecStmt:
					if se, f := fieldSel(p.info, n.X); f != nil {
						s := p.info.Selections[se]
						readEmbedded(s.Recv(), s.Index(), read)
						visit(se.X, self)
						return false
					}
				case *ast.SelectorExpr:
					if s := p.info.Selections[n]; s != nil {
						readEmbedded(s.Recv(), s.Index(), read)
						if f, ok := s.Obj().(*types.Var); ok && f.Origin() != self {
							read[f.Origin()] = true
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						if typ := p.info.Types[n.X].Type; typ != nil {
							if _, ok := typ.Underlying().(*types.Struct); ok {
								readAll(typ, nil, false, read, map[types.Type]bool{})
							}
						}
					}
				case *ast.CallExpr:
					var fn *types.Func
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						fn, _ = p.info.Uses[fun].(*types.Func)
					case *ast.SelectorExpr:
						fn, _ = p.info.Uses[fun.Sel].(*types.Func)
					}
					if fn == nil || fn.Pkg() == nil {
						break
					}
					switch fn.Pkg().Path() {
					case "fmt":
						for _, a := range n.Args {
							if root {
								readAll(p.info.Types[a].Type, fmtStop, false, read, seen)
							} else {
								readAll(p.info.Types[a].Type, fmtStop, false, hashed, hashSeen)
							}
						}
					case "encoding/json":
						for _, a := range n.Args {
							if root {
								readAll(p.info.Types[a].Type, nil, true, read, map[types.Type]bool{})
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			visit(f, nil)
		}
		for _, tv := range p.info.Types {
			readMapKeys(tv.Type, read, keySeen)
		}
	}

	declared := map[string]bool{}
	for f, d := range decls {
		declared[d.key] = true
		reason, listed := unreadFields[d.key]
		switch {
		case read[f] && listed:
			t.Errorf("allowlist entry %s is read now; drop it", d.key)
		case listed && reason == digestHashed && !hashed[f]:
			t.Errorf("allowlist entry %s is digest-hashed, but no bench/ fmt call reaches it", d.key)
		case !read[f] && !listed:
			t.Errorf("%s: %s is read by no program; delete it, or list it with the reason it stays", fset.Position(d.pos), d.key)
		}
	}
	for key, reason := range unreadFields {
		if !declared[key] {
			t.Errorf("allowlist entry %s is declared nowhere under internal/; drop it", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}
