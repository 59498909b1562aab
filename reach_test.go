package mbac_test

// The module keeps no exported function or method that only its own tests
// reach. One under internal/ is reached when a non-test file anywhere in
// the module (cmd/, examples/, benchmark/, the facade, its own package or
// another) or another package's test file names it. One that only its own
// package's tests name is either dead or test scaffolding wearing an
// export, and should be deleted or unexported. The scan is syntactic
// (go/parser, no type checking), so it errs toward "reached": a bare
// identifier or a selector on an import name with the function's name
// counts even if it happens to name something else, any selector with a
// method's name counts for every method so named, and a method named by an
// interface (the module's or a standard one) counts as reached. A second scan holds
// the same line for configuration: no unexported field that only tests
// write (TestEveryUnexportedFieldIsWritten). A third holds the public
// packages — the facade at the module root and client — to what programs
// and examples reach (TestEveryFacadeExportIsReached).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceOnly lists the exported functions and methods ("Type.Method") a
// package keeps although only its own tests call them, because those tests
// compare a fast path against them. Each entry names the test that does
// so; the scan checks that the test exists in that package and calls it.
var referenceOnly = map[string]string{
	"internal/quad.Bisect":           "TestBrentAgainstBisectProperty",
	"internal/stats.Autocorrelation": "TestACFRingBitCompatible",
	"internal/rng.PCG.SegmentSample": "TestSegmentAdvanceMatchesSegmentSample",
}

// modulePath is the import path of the directory the scan starts from.
const modulePath = "repro"

type scannedFile struct {
	dir     string // slash path relative to the module root ("" for the root)
	test    bool
	imports map[string]string // local name -> import path
	ast     *ast.File
}

func TestEveryInternalExportIsReached(t *testing.T) {
	files := scanModule(t, ".")

	// A method a module interface declares, or a standard interface's, is
	// reached through that interface.
	viaInterface := map[string]bool{}
	for _, name := range standardMethods {
		viaInterface[name] = true
	}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						viaInterface[name.Name] = true
					}
				}
			}
			return true
		})
	}

	// Exported top-level functions and methods declared in non-test files
	// under internal/.
	decls := map[string]*ast.Ident{} // "dir.Name" or "dir.Type.Method" -> declaring ident
	methods := map[string][]string{} // method name -> the keys of the methods so named
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || !fn.Name.IsExported():
			case fn.Recv == nil:
				decls[f.dir+"."+fn.Name.Name] = fn.Name
			case !viaInterface[fn.Name.Name]:
				key := f.dir + "." + funcName(fn)
				decls[key] = fn.Name
				methods[fn.Name.Name] = append(methods[fn.Name.Name], key)
			}
		}
	}

	reached := map[string]bool{}
	ownTests := map[string]map[string]bool{} // key -> names of own-package test funcs referencing it
	for _, f := range files {
		record := func(key string, id *ast.Ident, enclosing string) {
			if decls[key] == nil || decls[key] == id {
				return
			}
			if !f.test && key == f.dir+"."+enclosing {
				return // a recursive call does not reach the function
			}
			if f.test && strings.HasPrefix(key, f.dir+".") {
				if ownTests[key] == nil {
					ownTests[key] = map[string]bool{}
				}
				ownTests[key][enclosing] = true
				return
			}
			reached[key] = true
		}
		for _, d := range f.ast.Decls {
			enclosing := "" // the function or method d declares, if any
			if fn, ok := d.(*ast.FuncDecl); ok {
				enclosing = funcName(fn)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// Without types, a selector reaches every method of
					// its name.
					for _, key := range methods[n.Sel.Name] {
						record(key, n.Sel, enclosing)
					}
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := f.imports[x.Name]; ok && strings.HasPrefix(p, modulePath+"/") {
							record(strings.TrimPrefix(p, modulePath+"/")+"."+n.Sel.Name, n.Sel, enclosing)
							return false
						}
					}
					ast.Inspect(n.X, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							record(f.dir+"."+id.Name, id, enclosing)
						}
						return true
					})
					return false
				case *ast.Ident:
					record(f.dir+"."+n.Name, n, enclosing)
				}
				return true
			})
		}
	}

	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		test, allowed := referenceOnly[k]
		switch {
		case reached[k] && allowed:
			t.Errorf("%s is reached outside its own tests; drop it from referenceOnly", k)
		case reached[k]:
		case !allowed:
			t.Errorf("%s is exported but only its own package's tests reach it: delete it, unexport it, or call it from a program", k)
		case !ownTests[k][test]:
			t.Errorf("referenceOnly says %s compares against %s, but that test does not call it", test, k)
		}
	}
	for k := range referenceOnly {
		if decls[k] == nil {
			t.Errorf("referenceOnly names %s, which no longer exists", k)
		}
	}
}

// standardMethods are the standard library's interface methods the module's
// types implement and only fmt, errors, encoding or io call.
var standardMethods = []string{"String", "Error", "MarshalText", "UnmarshalText", "Read", "Write", "Close"}

// funcName returns a function's name, or "Type.Method" for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		}
		break
	}
	return typ.(*ast.Ident).Name + "." + fn.Name.Name
}

// publicPackages are the packages a program outside the module may
// import: the facade at the module root and the network client.
var publicPackages = map[string]bool{modulePath: true, modulePath + "/client": true}

// TestEveryFacadeExportIsReached keeps the public packages to what a
// program reaches. Every exported top-level func, type, const and var
// declared in a non-test file of a public package must be named through an
// import by a non-test file outside that package (a program under cmd/,
// examples/ or benchmark/, or any other package), be named by an Example
// of its own package, or be a type named in the signature of a function
// that is reached. A root test does not keep a name alive: the facade is
// the surface a program uses, and a name only tests use is not part of it.
// Methods are out of scope here.
func TestEveryFacadeExportIsReached(t *testing.T) {
	files := scanModule(t, ".")
	importPath := func(dir string) string {
		if dir == "" {
			return modulePath
		}
		return modulePath + "/" + dir
	}

	decls := map[string]bool{}    // "importpath.Name" of every subject
	sigs := map[string][]string{} // "importpath.Func" -> package-local names in its signature
	for _, f := range files {
		pkg := importPath(f.dir)
		if f.test || !publicPackages[pkg] {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				key := pkg + "." + d.Name.Name
				decls[key] = true
				for _, list := range []*ast.FieldList{d.Type.Params, d.Type.Results} {
					if list == nil {
						continue
					}
					for _, fld := range list.List {
						ast.Inspect(fld.Type, func(n ast.Node) bool {
							switch n := n.(type) {
							case *ast.SelectorExpr:
								return false // another package's name
							case *ast.Ident:
								sigs[key] = append(sigs[key], pkg+"."+n.Name)
							}
							return true
						})
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[pkg+"."+s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								decls[pkg+"."+name.Name] = true
							}
						}
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	for _, f := range files {
		pkg := importPath(f.dir)
		for _, d := range f.ast.Decls {
			if f.test {
				// Only an Example of the file's own (public) package counts.
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !publicPackages[pkg] || !strings.HasPrefix(fn.Name.Name, "Example") {
					continue
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := f.imports[x.Name]; ok {
							// A program names another package's export; an
							// Example names its own package's.
							if publicPackages[p] && (p == pkg) == f.test {
								reached[p+"."+n.Sel.Name] = true
							}
							return false
						}
					}
				case *ast.Ident:
					if f.test {
						reached[pkg+"."+n.Name] = true // an Example in the package itself
					}
				}
				return true
			})
		}
	}
	for fn := range decls {
		if reached[fn] {
			for _, name := range sigs[fn] {
				reached[name] = true
			}
		}
	}

	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reached[k] {
			t.Errorf("%s is exported but no program or Example reaches it: delete it, or call it from a program or an Example", k)
		}
	}
}

// scanModule parses every .go file under root, build tags ignored, skipping
// hidden directories and testdata.
func scanModule(t *testing.T, root string) []scannedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []scannedFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." {
			dir = ""
		}
		f := scannedFile{dir: dir, test: strings.HasSuffix(p, "_test.go"), imports: map[string]string{}, ast: af}
		for _, imp := range af.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = ip
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("scan found no Go files")
	}
	return files
}

// TestEveryUnexportedFieldIsWritten keeps the module free of fields that
// exist only so a test can set them: each unexported field of an exported
// struct type declared in a non-test file under internal/ must be written
// by some non-test file of its package. A write is a keyed composite
// literal element, an assignment or op-assignment, ++ or --, taking the
// field's address, or calling a method on it (which may take its address
// implicitly — how a mutex or an atomic is written). Like the export scan
// it is syntactic and errs toward "written": any selector or literal key
// with the field's name counts, whatever its type.
func TestEveryUnexportedFieldIsWritten(t *testing.T) {
	files := scanModule(t, ".")

	fields := map[string]string{} // "dir.field" -> "Type.field" of its first declaration
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						key := f.dir + "." + name.Name
						if !name.IsExported() && name.Name != "_" && fields[key] == "" {
							fields[key] = ts.Name.Name + "." + name.Name
						}
					}
				}
			}
		}
	}

	written := map[string]bool{} // "dir.field" written by a non-test file of dir
	for _, f := range files {
		if f.test {
			continue
		}
		// mark records every selector name along a written expression's
		// chain: writing a.b.c[i] writes c and, through it, b.
		var mark func(e ast.Expr)
		mark = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				written[f.dir+"."+e.Sel.Name] = true
				mark(e.X)
			case *ast.IndexExpr:
				mark(e.X)
			case *ast.StarExpr:
				mark(e.X)
			case *ast.ParenExpr:
				mark(e.X)
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[f.dir+"."+id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					mark(sel.X)
				}
			}
			return true
		})
	}

	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !written[k] {
			t.Errorf("%s.%s: no non-test file of its package writes it; a field only tests set is a switch to reach a slow path — reach that path through its input and delete the field", k[:strings.LastIndex(k, ".")], fields[k])
		}
	}
}
