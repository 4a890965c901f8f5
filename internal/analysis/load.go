// The package loader: a stand-in for golang.org/x/tools/go/packages
// built from what the standard toolchain already provides. `go list
// -deps -json` yields the dependency-ordered package graph (build-tag
// and platform filtering included), and each package is then parsed
// with go/parser and type-checked from source with go/types. The
// standard library type-checks from GOROOT source the same way, so the
// loader needs no export data, no network and no module downloads.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	GoFiles    []string // absolute paths, parallel to Files
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// sharedFset is the process-wide file set: standard-library packages
// are type-checked once and shared between loaders (they are identical
// under every loader configuration we use), which requires their
// object positions to stay resolvable for the life of the process.
var sharedFset = token.NewFileSet()

// stdCache shares type-checked standard-library packages between
// loaders. Analyzer fixture tests each build their own Loader; without
// sharing, every test would re-check net/http's whole dependency cone.
var (
	stdMu    sync.Mutex
	stdCache = map[string]*Package{}
)

// Loader loads and type-checks packages.
type Loader struct {
	// Dir is the module root `go list` runs in.
	Dir string
	// Overlay maps import paths to source directories that take
	// precedence over `go list` resolution. The analysistest harness
	// points it at testdata/src so fixtures can stand in for real
	// packages (including their dependencies' stubs).
	Overlay map[string]string

	fset *token.FileSet
	pkgs map[string]*Package
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(dir string) *Loader {
	return &Loader{Dir: dir, fset: sharedFset, pkgs: map[string]*Package{}}
}

// listedPackage is the slice of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// goList runs `go list -deps -json` over the patterns and decodes the
// stream. CGO is disabled so every listed file is pure Go and the
// whole graph can be type-checked from source.
func (l *Loader) goList(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Name,Dir,Standard,DepOnly,GoFiles,Imports,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load lists the patterns, type-checks the full dependency graph and
// returns the root packages (the ones the patterns named) in a stable
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var roots []*Package
	// -deps guarantees dependency order: every package's imports appear
	// before it, so a straight pass type-checks cleanly.
	for _, lp := range listed {
		pkg, err := l.ensureListed(lp)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly && pkg != nil {
			roots = append(roots, pkg)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	return roots, nil
}

// LoadOverlay type-checks one overlay package (a fixture) by import
// path. The path must be present in l.Overlay.
func (l *Loader) LoadOverlay(importPath string) (*Package, error) {
	dir, ok := l.Overlay[importPath]
	if !ok {
		return nil, fmt.Errorf("analysis: %q not in overlay", importPath)
	}
	return l.checkOverlayDir(importPath, dir)
}

// ensureListed type-checks one `go list`ed package (or returns the
// cached result).
func (l *Loader) ensureListed(lp *listedPackage) (*Package, error) {
	if lp.ImportPath == "unsafe" {
		return nil, nil // mapped to types.Unsafe by the importer
	}
	if p, ok := l.pkgs[lp.ImportPath]; ok {
		return p, nil
	}
	if lp.Standard {
		stdMu.Lock()
		p, ok := stdCache[lp.ImportPath]
		stdMu.Unlock()
		if ok {
			l.pkgs[lp.ImportPath] = p
			return p, nil
		}
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	p, err := l.check(lp.ImportPath, lp.Dir, lp.Standard, files)
	if err != nil {
		return nil, err
	}
	if lp.Standard {
		stdMu.Lock()
		stdCache[lp.ImportPath] = p
		stdMu.Unlock()
	}
	return p, nil
}

// check parses and type-checks one package from its file list.
func (l *Loader) check(importPath, dir string, standard bool, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	var typeErrs []error
	conf := types.Config{
		Importer:    (*loaderImporter)(l),
		Sizes:       sizes,
		FakeImportC: true,
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-check %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Dir:        dir,
		Standard:   standard,
		GoFiles:    filenames,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// checkOverlayDir loads an overlay package from a directory: every
// non-test .go file (fixtures carry no build constraints).
func (l *Loader) checkOverlayDir(importPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: overlay %s: %v", importPath, err)
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		filenames = append(filenames, filepath.Join(dir, name))
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("analysis: overlay %s: no buildable files in %s", importPath, dir)
	}
	sort.Strings(filenames)
	return l.check(importPath, dir, false, filenames)
}

// loaderImporter resolves imports during type-checking: overlay first
// (fixtures stub their dependencies), then already-loaded packages,
// then a lazy `go list` for anything new (a fixture importing a
// standard package whose graph the initial load did not cover).
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.Overlay[path]; ok {
		p, err := l.checkOverlayDir(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	// Standard-library vendoring: source inside GOROOT imports
	// "golang.org/x/..." but `go list` names the package
	// "vendor/golang.org/x/...". The vendored dependency is always
	// listed (in dependency order) before its importer, so it is
	// already loaded.
	if p, ok := l.pkgs["vendor/"+path]; ok {
		return p.Types, nil
	}
	listed, err := l.goList(path)
	if err != nil {
		return nil, err
	}
	var want *Package
	for _, lp := range listed {
		p, err := l.ensureListed(lp)
		if err != nil {
			return nil, err
		}
		if lp.ImportPath == path {
			want = p
		}
	}
	if want == nil {
		return nil, fmt.Errorf("analysis: import %q not resolved", path)
	}
	return want.Types, nil
}
