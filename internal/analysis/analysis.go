// Package analysis is the engine's static-analysis layer: a small,
// dependency-free clone of the golang.org/x/tools/go/analysis API plus
// the repo-specific analyzers that machine-check invariants this
// codebase otherwise states only in prose (lock ordering, per-query
// I/O metering, sentinel-error discipline, core determinism, metric
// registration — see docs/static-analysis.md for the full list and
// where each invariant is argued).
//
// Why a clone and not the real thing: the build environment pins the
// module graph to the standard library (no module downloads), so the
// framework here reimplements the narrow slice of go/analysis the
// analyzers need — an Analyzer with a Run func over a type-checked
// Pass, file:line diagnostics, and an analysistest-style fixture
// harness (package analysistest) driven by "// want" comments. The
// loader (load.go) stands in for go/packages: it shells out to
// `go list -deps -json` for the dependency-ordered package graph and
// type-checks every package from source with go/types.
//
// # Suppressions
//
// A finding that is a deliberate exception is silenced in-tree with a
// comment on the flagged line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare allowance fails the run. Suppressions
// are visible, greppable policy: the analyzer still fires internally,
// the driver just reports it as suppressed instead of failing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Mirrors the x/tools shape
// so the analyzers port wholesale if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer's registry key: lowercase, also the token
	// //lint:allow comments name.
	Name string
	// Doc is a one-line statement of the invariant the analyzer encodes.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed sources (build-tag filtered the
	// same way `go build` would, comments preserved).
	Files []*ast.File
	// Pkg and TypesInfo carry full type information for the package.
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings silenced by a //lint:allow comment;
	// they are kept (visible in -v output) but do not fail the run.
	Suppressed bool
	// SuppressReason is the allowance's stated justification.
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings, suppression-annotated and sorted by position. Packages
// should be the analysis roots only (the loader's deps are reachable
// through the type information, not analyzed themselves).
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		applySuppressions(diags, pkg)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowPrefix starts a suppression comment. The comment grammar is
// //lint:allow <analyzer> <reason...>.
const allowPrefix = "lint:allow"

// suppression is one parsed //lint:allow comment.
type suppression struct {
	analyzer string
	reason   string
}

// applySuppressions marks findings covered by a //lint:allow comment on
// the same line or the line directly above. Only findings inside pkg's
// files are considered (diags may already hold other packages').
func applySuppressions(diags []Diagnostic, pkg *Package) {
	// file -> line -> suppressions declared there.
	byLine := make(map[string]map[int][]suppression)
	for i, f := range pkg.Files {
		filename := pkg.GoFiles[i]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				sup, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				m := byLine[filename]
				if m == nil {
					m = make(map[int][]suppression)
					byLine[filename] = m
				}
				m[line] = append(m[line], sup)
			}
		}
	}
	if len(byLine) == 0 {
		return
	}
	for i := range diags {
		d := &diags[i]
		if d.Suppressed {
			continue
		}
		m := byLine[d.Pos.Filename]
		if m == nil {
			continue
		}
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, sup := range m[line] {
				if sup.analyzer == d.Analyzer {
					d.Suppressed = true
					d.SuppressReason = sup.reason
				}
			}
		}
	}
}

// parseAllow parses one comment as a suppression. Comments that start
// the allow grammar but are malformed (no analyzer, no reason) are NOT
// valid suppressions — a silent typo must not silently allow.
func parseAllow(text string) (suppression, bool) {
	body := strings.TrimPrefix(text, "//")
	body = strings.TrimSpace(body)
	if !strings.HasPrefix(body, allowPrefix) {
		return suppression{}, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, allowPrefix))
	name, reason, _ := strings.Cut(rest, " ")
	reason = strings.TrimSpace(reason)
	if name == "" || reason == "" {
		return suppression{}, false
	}
	return suppression{analyzer: name, reason: reason}, true
}

// pathIs reports whether pkg's import path names the given repo
// package: an exact match or a "/"-boundary suffix match, so fixture
// packages under testdata (e.g. "locksafe/internal/engine") are
// analyzed exactly like the real "repro/internal/engine".
func pathIs(pkg *types.Package, repoPath string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == repoPath || strings.HasSuffix(p, "/"+repoPath)
}

// pathIsAny reports whether pkg matches any of the repo paths.
func pathIsAny(pkg *types.Package, repoPaths ...string) bool {
	for _, rp := range repoPaths {
		if pathIs(pkg, rp) {
			return true
		}
	}
	return false
}
