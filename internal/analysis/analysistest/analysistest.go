// Package analysistest drives an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under a testdata source tree (testdata/src by
// convention); every directory containing .go files becomes an overlay
// package whose import path is its path relative to the tree root, so
// a fixture at testdata/src/locksafe/internal/engine is analyzed
// exactly like the real internal/engine (the analyzers match package
// paths by suffix). Expectations are comments on the flagged line:
//
//	tf.Get(id) // want `charges the file-wide meter`
//	tf.Get(id) // want:suppressed `charges the file-wide meter`
//
// Each backtick-quoted fragment is a regexp that one diagnostic on
// that line must match; want:suppressed expects the finding to have
// been silenced by a //lint:allow comment. A diagnostic with no
// matching expectation, or an expectation with no diagnostic, fails
// the test. Expectations are collected textually from every non-test
// .go file in the fixture directories.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var (
	wantRe = regexp.MustCompile("//\\s*want(:suppressed)?((?:\\s+`[^`]*`)+)")
	patRe  = regexp.MustCompile("`([^`]*)`")
)

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	used       bool
}

// Run loads the fixture packages named by importPaths from the
// testdata tree, applies the analyzer, and reports every mismatch
// between its diagnostics and the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	loader := analysis.NewLoader(testdata)
	loader.Overlay = overlayOf(t, testdata)
	var pkgs []*analysis.Package
	for _, ip := range importPaths {
		pkg, err := loader.LoadOverlay(ip)
		if err != nil {
			t.Fatalf("load fixture %s: %v", ip, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	exps := collectWants(t, pkgs)
	for _, d := range diags {
		if !claim(exps, d) {
			kind := ""
			if d.Suppressed {
				kind = " (suppressed)"
			}
			t.Errorf("unexpected diagnostic%s: %s", kind, d)
		}
	}
	for _, e := range exps {
		if !e.used {
			kind := "a"
			if e.suppressed {
				kind = "a suppressed"
			}
			t.Errorf("%s:%d: want %s %s diagnostic matching %q, got none", e.file, e.line, kind, a.Name, e.re)
		}
	}
}

// claim marks the first unused expectation matching d, reporting
// whether one existed.
func claim(exps []*expectation, d analysis.Diagnostic) bool {
	for _, e := range exps {
		if e.used || e.file != d.Pos.Filename || e.line != d.Pos.Line || e.suppressed != d.Suppressed {
			continue
		}
		if e.re.MatchString(d.Message) {
			e.used = true
			return true
		}
	}
	return false
}

// overlayOf maps every fixture directory under the testdata tree to an
// import path relative to the tree root.
func overlayOf(t *testing.T, testdata string) map[string]string {
	t.Helper()
	overlay := map[string]string{}
	err := filepath.WalkDir(testdata, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(testdata, path)
				if err != nil {
					return err
				}
				overlay[filepath.ToSlash(rel)] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", testdata, err)
	}
	if len(overlay) == 0 {
		t.Fatalf("no fixture packages under %s", testdata)
	}
	return overlay
}

// collectWants scans every non-test .go file of the fixture packages.
func collectWants(t *testing.T, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var exps []*expectation
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg.Dir] {
			continue
		}
		seen[pkg.Dir] = true
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			t.Fatalf("read fixture dir %s: %v", pkg.Dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(pkg.Dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture %s: %v", path, err)
			}
			for i, line := range strings.Split(string(raw), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				for _, pm := range patRe.FindAllStringSubmatch(m[2], -1) {
					re, err := regexp.Compile(pm[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pm[1], err)
					}
					exps = append(exps, &expectation{
						file:       path,
						line:       i + 1,
						re:         re,
						suppressed: m[1] == ":suppressed",
					})
				}
			}
		}
	}
	return exps
}
