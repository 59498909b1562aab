package mbac_test

// The module keeps no exported function that only its own tests reach.
// A function under internal/ is reached when a non-test file anywhere in
// the module (cmd/, examples/, benchmark/, the facade, its own package or
// another) or another package's test file names it. One that only its own
// package's tests name is either dead or test scaffolding wearing an
// export, and should be deleted or unexported. The scan is syntactic
// (go/parser, no type checking), so it errs toward "reached": a bare
// identifier or a selector on an import name with the function's name
// counts even if it happens to name something else.

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

// referenceOnly lists the exported functions a package keeps although only
// its own tests call them, because those tests compare a fast path against
// them. Each entry names the test that does so; the scan checks that the
// test exists in that package and calls the function.
var referenceOnly = map[string]string{
	"internal/quad.Bisect":           "TestBrentAgainstBisectProperty",
	"internal/stats.Autocorrelation": "TestACFRingBitCompatible",
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

	// Exported top-level functions declared in non-test files under internal/.
	decls := map[string]*ast.Ident{} // "dir.Name" -> declaring ident
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				decls[f.dir+"."+fn.Name.Name] = fn.Name
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
			if f.test && key[:strings.LastIndex(key, ".")] == f.dir {
				if ownTests[key] == nil {
					ownTests[key] = map[string]bool{}
				}
				ownTests[key][enclosing] = true
				return
			}
			reached[key] = true
		}
		for _, d := range f.ast.Decls {
			enclosing := "" // the top-level function d declares, if any
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				enclosing = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
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
