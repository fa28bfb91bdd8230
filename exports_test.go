package fixedpsnr_test

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

// testOnlyExports names the exported top-level functions under internal/
// that no non-test code calls, each with the tests that need it exported.
// Everything else a test alone calls belongs in that package's _test.go
// files, or nowhere.
var testOnlyExports = map[string]string{
	"fixedpsnr/internal/kernels.ForceGeneric":  "fixtures_test.go and internal/sz/reference_test.go run the generic kernels",
	"fixedpsnr/internal/kernels.LaneSplit4":    "internal/huffman/lanes_test.go checks the fused lane emit against it",
	"fixedpsnr/internal/codec.EntropySteps":    "entropy_once_test.go counts entropy steps",
	"fixedpsnr/internal/codec.HeaderParses":    "archive_v2_test.go and internal/sz/pwrel_test.go count header parses",
	"fixedpsnr/internal/transform.HaarForward": "internal/otc/reference_test.go builds the Haar block reference on it",
	"fixedpsnr/internal/transform.HaarInverse": "internal/otc/reference_test.go builds the Haar block reference on it",
}

// TestInternalExportsHaveCallers fails for an exported top-level function
// under internal/ that nothing outside its own declaration uses in the
// non-test code of the module or of perfbench, unless testOnlyExports
// names it. It parses every non-test file under any build tag; a use is a
// pkg.Name selector resolved through the file's imports, or a bare Name
// within the declaring package. Methods are out of scope: a method can be
// needed only to satisfy an interface, which no name shows.
func TestInternalExportsHaveCallers(t *testing.T) {
	type file struct {
		path, dir string
		ast       *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		dir := "fixedpsnr" // perfbench's module path is fixedpsnr/perfbench
		if d := filepath.Dir(path); d != "." {
			dir += "/" + filepath.ToSlash(d)
		}
		pkgName[dir] = f.Name.Name
		files = append(files, file{path, dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // pkg.Name -> file that declares it
	used := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "fixedpsnr/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[f.dir+"."+fn.Name.Name] = f.path
			}
		}
	}
	for _, f := range files {
		imports := map[string]string{} // name in this file -> import path
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name := pkgName[path]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name != "" {
				imports[name] = path
			}
		}
		for _, d := range f.ast.Decls {
			self := "" // a function's own name inside its body is no use
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = fn.Name.Name
			}
			sels := map[*ast.Ident]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					sels[n.Name] = true
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if path, ok := imports[x.Name]; ok {
							used[path+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if !sels[n] && n.Name != self {
						used[f.dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var unused []string
	for name, path := range declared {
		if !used[name] && testOnlyExports[name] == "" {
			unused = append(unused, name+" ("+path+")")
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported, but only tests call it: move it into the package's _test.go files, delete it, or name the test that needs it in testOnlyExports", name)
	}
	for name := range testOnlyExports {
		switch {
		case declared[name] == "":
			t.Errorf("testOnlyExports names %s, which is not declared", name)
		case used[name]:
			t.Errorf("testOnlyExports names %s, which non-test code calls: drop it from the list", name)
		}
	}
}
