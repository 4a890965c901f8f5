// Command docscheck is the CI documentation linter: it fails when the
// markdown docs drift from the code they describe.
//
// Seven checks, over README.md and docs/*.md:
//
//  1. Cross-references: every relative markdown link [text](path)
//     must point at a file that exists (anchors are stripped;
//     absolute URLs are ignored).
//  2. Flags: every command-line flag mentioned in inline code
//     (`-flag` or `-flag=value` inside single backticks, outside
//     fenced code blocks) must exist in the source of cmd/irserver
//     or cmd/irproxy for the docs/ files (the operator docs cover
//     both daemons), or in any cmd/* main for the README.
//     Fenced blocks are exempt — they hold full shell transcripts
//     whose tokens (curl options, jq filters) are not flag claims.
//  3. Analyzer parity: the analyzer table of docs/static-analysis.md
//     must list exactly the analyzers registered in internal/analysis.
//  4. Metric parity: the catalogue of docs/observability.md must list
//     exactly the metric names registered through obs.New* in
//     internal/ (both directions — phantom rows and missing rows).
//  5. Figure parity: the table of docs/figures.md must list exactly
//     the ids of the internal/exp registry.
//  6. Test-only declarations: every declaration the table of
//     docs/static-analysis.md excuses as reachable from tests alone
//     must still be declared in a non-test file of its package.
//  7. Format versions: for each file magic declared in internal/ as
//     five letters and a three-digit version (IRTUP, IRWAL, IRCRC),
//     the docs must never name a version newer than the source's, and
//     a doc that names any version of that magic must also name the
//     current one — a format bump cannot leave the docs describing the
//     old format as current.
//
// Usage: go run ./cmd/docscheck [-root DIR]   (default: the repo root)
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	// flagDefRe matches a std flag definition — on the package or on a
	// FlagSet (irlint parses into one) — and captures the flag's name.
	flagDefRe = regexp.MustCompile(`(?:flag|fs)\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(\s*"([^"]+)"`)
	// inlineCodeRe captures single-backtick inline code spans.
	inlineCodeRe = regexp.MustCompile("`([^`]+)`")
	// linkRe captures markdown link targets.
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)]+)\)`)
	// flagTokenRe decides whether one word inside inline code claims a
	// command-line flag: -name or -name=value, name starting with a
	// letter (so "kill -9" and negative numbers never match).
	flagTokenRe = regexp.MustCompile(`^-([a-zA-Z][a-zA-Z0-9-]*)(?:=\S*)?$`)
	// analyzerDefRe captures a registered analyzer's Name literal in
	// internal/analysis.
	analyzerDefRe = regexp.MustCompile(`Name:\s*"([a-z0-9]+)"`)
	// analyzerDocRe captures an analyzer row of the static-analysis
	// doc's table (first cell, backticked name).
	analyzerDocRe = regexp.MustCompile("^\\|\\s*`([a-z0-9]+)`\\s*\\|")
	// metricDefRe captures the name literal of an obs metric
	// registration (the obsreg analyzer guarantees names ARE literals,
	// which is what makes this static cross-check possible).
	metricDefRe = regexp.MustCompile(`obs\.New(?:Counter|CounterVec|Gauge|GaugeFunc|LabeledGaugeFunc|Histogram|HistogramVec)\(\s*"(ir_[a-z0-9_]+)"`)
	// metricDocRe captures a metric row of the observability doc's
	// catalogue (first cell, backticked name).
	metricDocRe = regexp.MustCompile("^\\|\\s*`(ir_[a-z0-9_]+)`\\s*\\|")
	// figureDefRe captures the ID literal of an entry of exp.Figures.
	figureDefRe = regexp.MustCompile(`\{ID:\s*"([a-z0-9-]+)"`)
	// figureDocRe captures a row of the figures doc's table (first cell,
	// backticked id).
	figureDocRe = regexp.MustCompile("^\\|\\s*`([a-z0-9-]+)`\\s*\\|")
	// magicDefRe captures the bytes of an eight-byte file magic declared
	// as a composite literal; magicRe splits a magic of five letters and
	// a three-digit format version, as the source declares and the docs
	// name it.
	magicDefRe = regexp.MustCompile(`\[8\]byte\{([^}]*)\}`)
	magicRe    = regexp.MustCompile(`\b(IR[A-Z]{3})([0-9]{3})\b`)
	// protoDefRe captures the replication protocol version the source
	// declares; protoDocRe the version a doc names in a hello.
	protoDefRe = regexp.MustCompile(`const ProtoVersion = ([0-9]+)`)
	protoDocRe = regexp.MustCompile(`\bproto = ([0-9]+)`)
	// testOnlyDocRe captures a row of the static-analysis doc's table of
	// declarations only tests reach (first cell, backticked): dir.Name or
	// dir.Type.Method, dir being the package's path under internal/.
	testOnlyDocRe = regexp.MustCompile("(?m)^\\|\\s*`([a-z]+(?:/[a-z]+)*\\.[A-Za-z_]\\w*(?:\\.[A-Za-z_]\\w*)?)`\\s*\\|")
)

// goToolFlags are inline-mentionable flags that belong to the go tool
// chain, not to our binaries.
var goToolFlags = map[string]bool{
	"race": true, "run": true, "bench": true, "benchmem": true,
	"benchtime": true, "count": true, "v": true, "short": true,
	"deps": true, "json": true, "tags": true, "fuzz": true,
	"fuzztime": true,
}

// collect adds what re captures in one source file — flag definitions of
// a main package, analyzer names, figure ids — to into.
func collect(path string, re *regexp.Regexp, into map[string]bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, m := range re.FindAllStringSubmatch(string(raw), -1) {
		into[m[1]] = true
	}
	return nil
}

// checkAnalyzerParity cross-references the analyzer table of
// docs/static-analysis.md against the Analyzer definitions in
// internal/analysis: a documented analyzer that is not registered (or
// a registered one the doc does not list) is drift, the same way a
// phantom flag is.
func checkAnalyzerParity(root string) ([]string, error) {
	srcs, err := filepath.Glob(filepath.Join(root, "internal", "analysis", "*.go"))
	if err != nil || len(srcs) == 0 {
		return nil, fmt.Errorf("no internal/analysis sources found")
	}
	registered := map[string]bool{}
	for _, s := range srcs {
		if strings.HasSuffix(s, "_test.go") {
			continue
		}
		if err := collect(s, analyzerDefRe, registered); err != nil {
			return nil, err
		}
	}
	return tableParity(filepath.Join(root, "docs", "static-analysis.md"), analyzerDocRe, registered, "analyzer")
}

// checkFigureParity cross-references the table of docs/figures.md
// against the ids of the exp.Figures registry, both directions.
func checkFigureParity(root string) ([]string, error) {
	registered := map[string]bool{}
	if err := collect(filepath.Join(root, "internal", "exp", "figures.go"), figureDefRe, registered); err != nil {
		return nil, err
	}
	return tableParity(filepath.Join(root, "docs", "figures.md"), figureDocRe, registered, "figure")
}

// checkTestOnlyParity holds the static-analysis doc's table of
// declarations only tests reach to the tree: a row whose declaration
// has been deleted, or moved into a _test.go file, is a stale excuse.
// Only that direction is checked — which declarations belong in the
// table is the reachability pass's business, described beside it.
func checkTestOnlyParity(root string) ([]string, error) {
	doc := filepath.Join(root, "docs", "static-analysis.md")
	documented := map[string]bool{}
	if err := collect(doc, testOnlyDocRe, documented); err != nil {
		return nil, err
	}
	declared, parsed := map[string]bool{}, map[string]bool{}
	for name := range documented {
		dir := name[:strings.Index(name, ".")]
		if parsed[dir] {
			continue
		}
		parsed[dir] = true
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, "internal", dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					for _, n := range declNames(d) {
						if n = dir + "." + n; documented[n] {
							declared[n] = true
						}
					}
				}
			}
		}
	}
	return tableParity(doc, testOnlyDocRe, declared, "test-only declaration")
}

// eachSource hands fn the contents of every non-test Go file under
// internal/, testdata excluded.
func eachSource(root string, fn func(raw []byte)) error {
	return filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(raw)
		return nil
	})
}

// checkFormatVersions holds the format versions the docs name to the
// file magics declared in internal/: a version newer than the source's
// is drift, and so is a doc that names versions of a magic but not the
// current one. A `proto = N` must name the replication protocol the
// source declares, exactly.
func checkFormatVersions(root string) ([]string, error) {
	current := map[string]string{} // IRTUP → 003
	proto := ""
	err := eachSource(root, func(raw []byte) {
		if m := protoDefRe.FindSubmatch(raw); m != nil {
			proto = string(m[1])
		}
		for _, m := range magicDefRe.FindAllStringSubmatch(string(raw), -1) {
			var magic strings.Builder
			for _, b := range strings.Split(m[1], ",") {
				if b = strings.TrimSpace(b); len(b) == 3 && b[0] == '\'' && b[2] == '\'' {
					magic.WriteByte(b[1])
				}
			}
			if v := magicRe.FindStringSubmatch(magic.String()); v != nil && v[0] == magic.String() {
				current[v[1]] = v[2]
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(current) == 0 {
		return nil, fmt.Errorf("no file magic declared in internal/")
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	var problems []string
	for _, doc := range append([]string{filepath.Join(root, "README.md")}, docs...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		named, namedCurrent := map[string]bool{}, map[string]bool{}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range protoDocRe.FindAllStringSubmatch(line, -1) {
				if proto != "" && m[1] != proto {
					problems = append(problems, fmt.Sprintf("%s:%d: %s, but the source's replication.ProtoVersion is %s", doc, i+1, m[0], proto))
				}
			}
			for _, m := range magicRe.FindAllStringSubmatch(line, -1) {
				kind, version := m[1], m[2]
				cur, ok := current[kind]
				if !ok {
					continue
				}
				named[kind] = true
				switch {
				case version > cur:
					problems = append(problems, fmt.Sprintf("%s:%d: format %s is newer than the source's %s%s", doc, i+1, m[0], kind, cur))
				case version == cur:
					namedCurrent[kind] = true
				}
			}
		}
		for kind := range named {
			if !namedCurrent[kind] {
				problems = append(problems, fmt.Sprintf("%s: names versions of %s but not the current %s%s", doc, kind, kind, current[kind]))
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// declNames lists what one top-level declaration declares: Name for a
// function, type, variable or constant, Type.Name for a method.
func declNames(d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []string{d.Name.Name}
		}
		t := d.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return []string{id.Name + "." + d.Name.Name}
		}
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names = append(names, id.Name)
				}
			}
		}
		return names
	}
	return nil
}

// tableParity compares the names a doc's table lists (rowRe captures one
// from a row's first cell) with the registered ones: a row naming
// nothing registered and a registered name with no row are both drift.
func tableParity(docPath string, rowRe *regexp.Regexp, registered map[string]bool, kind string) ([]string, error) {
	raw, err := os.ReadFile(docPath)
	if err != nil {
		return nil, err
	}
	var problems []string
	documented := map[string]bool{}
	for i, line := range strings.Split(string(raw), "\n") {
		m := rowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		documented[m[1]] = true
		if !registered[m[1]] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s `%s` is documented but not registered", docPath, i+1, kind, m[1]))
		}
	}
	for name := range registered {
		if !documented[name] {
			problems = append(problems, fmt.Sprintf("%s: %s %q is registered but missing from the table", docPath, kind, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// checkMetricParity cross-references the metric catalogue of
// docs/observability.md against every obs.New* registration literal in
// internal/: a documented metric that is never registered, or a
// registered one the catalogue omits, is drift in either direction.
// internal/obs itself is exempt — its self-registrations
// (ir_build_info, the process clocks) are documented, but its tests
// register throwaway names.
func checkMetricParity(root string) ([]string, error) {
	registered := map[string]bool{}
	err := eachSource(root, func(raw []byte) {
		// Per line, skipping // comments: obs.go's doc comment shows an
		// example registration that must not count as a real one.
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				continue
			}
			for _, m := range metricDefRe.FindAllStringSubmatch(line, -1) {
				registered[m[1]] = true
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// The obs package's own registrations call the package-local
	// constructors (no obs. selector); add them from the build vars file.
	for _, name := range []string{"ir_build_info", "ir_process_start_time_seconds", "ir_process_uptime_seconds"} {
		registered[name] = true
	}
	return tableParity(filepath.Join(root, "docs", "observability.md"), metricDocRe, registered, "metric")
}

// checkFile lints one markdown file; problems are returned as
// human-readable strings prefixed with file:line.
func checkFile(path string, known map[string]bool) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	dir := filepath.Dir(path)
	inFence := false
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		// Links resolve even inside inline code (they never are); flags
		// count only inside inline code.
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", path, i+1, m[1]))
			}
		}
		for _, span := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			for _, word := range strings.Fields(span[1]) {
				fm := flagTokenRe.FindStringSubmatch(word)
				if fm == nil {
					continue
				}
				name := fm[1]
				if !known[name] && !goToolFlags[name] {
					problems = append(problems, fmt.Sprintf("%s:%d: flag `-%s` is documented but not defined", path, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	// Flag universes: the daemons' flags (irserver + irproxy) for the
	// docs/ tree (the operator docs document both), the union of every
	// command's flags for the README (which also shows irgen/irquery
	// usage).
	daemons := map[string]bool{}
	for _, cmd := range []string{"irserver", "irproxy"} {
		if err := collect(filepath.Join(*root, "cmd", cmd, "main.go"), flagDefRe, daemons); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
	}
	union := map[string]bool{}
	mains, err := filepath.Glob(filepath.Join(*root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: no cmd/*/main.go found")
		os.Exit(2)
	}
	for _, m := range mains {
		if err := collect(m, flagDefRe, union); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
	}

	targets := map[string]map[string]bool{
		filepath.Join(*root, "README.md"): union,
	}
	docs, _ := filepath.Glob(filepath.Join(*root, "docs", "*.md"))
	if len(docs) == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: docs/*.md missing")
		os.Exit(1)
	}
	for _, d := range docs {
		targets[d] = daemons
	}
	// The static-analysis doc documents irlint (and the go test fuzz
	// flags), not the daemons; check it against every command's flags.
	targets[filepath.Join(*root, "docs", "static-analysis.md")] = union
	// The sharding doc walks the full deployment — irgen partitioning
	// included — so it too gets the union.
	targets[filepath.Join(*root, "docs", "sharding.md")] = union
	// The figures doc documents irbench and the golden test's own flag.
	figures := maps.Clone(union)
	if err := collect(filepath.Join(*root, "internal", "exp", "exp_test.go"), flagDefRe, figures); err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	targets[filepath.Join(*root, "docs", "figures.md")] = figures
	// The spec and the operator guide are load-bearing: their absence
	// is a failure, not a skip.
	for _, required := range []string{"replication.md", "operations.md", "architecture.md", "static-analysis.md", "observability.md", "sharding.md", "figures.md"} {
		if _, err := os.Stat(filepath.Join(*root, "docs", required)); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: required doc docs/%s missing\n", required)
			os.Exit(1)
		}
	}

	var all []string
	for path, known := range targets {
		problems, err := checkFile(path, known)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		all = append(all, problems...)
	}
	for _, parity := range []func(string) ([]string, error){checkAnalyzerParity, checkMetricParity, checkFigureParity, checkTestOnlyParity, checkFormatVersions} {
		problems, err := parity(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		all = append(all, problems...)
	}
	if len(all) > 0 {
		for _, p := range all {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(all))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d files clean (%d daemon flags, %d total flags)\n", len(targets), len(daemons), len(union))
}
