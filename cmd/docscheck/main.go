// Command docscheck is the repository's documentation lint, run by the
// CI docs job:
//
//	go run ./cmd/docscheck            # check the working tree
//	go run ./cmd/docscheck -root dir  # check another checkout
//
// It enforces three invariants the test suite cannot:
//
//  1. Every package (except external _test packages) carries a package
//     doc comment, so `go doc` works everywhere.
//  2. Every CLI flag registered under cmd/ or internal/ appears in
//     README.md's flag table as `-name`, and every `-name` in the first
//     column of that table is registered there, so the README can
//     neither silently fall behind the binaries nor outlive a flag.
//     Flags are discovered by parsing the non-test source for
//     flag.String/Bool/... calls and for the same calls on a
//     *flag.FlagSet parameter (core.Spec.BindFlags registers insips'
//     run flags that way) — adding a flag without documenting it, or
//     removing one and leaving its row, fails CI.
//  3. Every HTTP route insipsd registers (the "METHOD /path" patterns
//     passed to mux.HandleFunc in internal/server) appears verbatim in
//     docs/API.md, so the API reference cannot silently fall behind the
//     service — adding a route without documenting it fails CI.
//  4. Every CHANGES.md entry (a top-level "- " item with the lines that
//     continue it) is at most maxEntryBytes long, and every
//     docs/history/ file CHANGES.md links exists: an entry is one
//     paragraph, and its full record lives in the file it links.
//
// Exit status is non-zero when any violation is found; each violation
// prints one line.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	checkPackageDocs(*root, report)
	checkREADMEFlags(*root, report)
	checkAPIRoutes(*root, report)
	checkChangelog(*root, report)

	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// goDirs returns every directory under root containing .go files,
// skipping hidden directories and testdata.
func goDirs(root string, report func(string, ...any)) []string {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		report("docscheck: walking %s: %v", root, err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// checkPackageDocs requires a package doc comment on every package.
// External test packages (package foo_test) are exempt: they document
// nothing importable.
func checkPackageDocs(root string, report func(string, ...any)) {
	for _, dir := range goDirs(root, report) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			report("docscheck: parsing %s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				report("docscheck: package %s (%s) has no package doc comment", name, dir)
			}
		}
	}
}

// flagFuncs are the flag-registration functions whose first argument is
// the flag name.
var flagFuncs = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
	"StringVar": true, "BoolVar": true, "IntVar": true, "Int64Var": true,
	"UintVar": true, "Uint64Var": true, "Float64Var": true, "DurationVar": true,
	"Var": true,
}

// dirFlags parses one directory's non-test files and returns the names
// of every flag they register: on the package flag, or on a function's
// *flag.FlagSet parameter.
func dirFlags(dir string, report func(string, ...any)) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		report("docscheck: parsing %s: %v", dir, err)
		return nil
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				names = append(names, declFlags(decl)...)
			}
		}
	}
	sort.Strings(names)
	return names
}

// declFlags returns the flags one declaration registers.
func declFlags(decl ast.Decl) []string {
	receivers := map[string]bool{"flag": true}
	if fn, ok := decl.(*ast.FuncDecl); ok {
		for _, param := range fn.Type.Params.List {
			if types.ExprString(param.Type) == "*flag.FlagSet" {
				for _, name := range param.Names {
					receivers[name.Name] = true
				}
			}
		}
	}
	var names []string
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagFuncs[sel.Sel.Name] {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || !receivers[ident.Name] {
			return true
		}
		argIdx := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			argIdx = 1 // (pointer or flag.Value, name, ...)
		}
		if len(call.Args) <= argIdx {
			return true
		}
		lit, ok := call.Args[argIdx].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err == nil && name != "" {
			names = append(names, name)
		}
		return true
	})
	return names
}

// serverRoutes parses internal/server and returns every "METHOD /path"
// pattern registered with a HandleFunc call (the Go 1.22 ServeMux
// method-pattern convention).
func serverRoutes(root string, report func(string, ...any)) []string {
	dir := filepath.Join(root, "internal", "server")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		report("docscheck: parsing %s: %v", dir, err)
		return nil
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "HandleFunc" || len(call.Args) < 1 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				pattern, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				// Only "METHOD /path" patterns count as routes.
				method, _, found := strings.Cut(pattern, " ")
				if found && method == strings.ToUpper(method) && method != "" {
					seen[pattern] = true
				}
				return true
			})
		}
	}
	routes := make([]string, 0, len(seen))
	for r := range seen {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	return routes
}

// checkAPIRoutes requires every registered insipsd route to appear
// verbatim (as "METHOD /path") in docs/API.md.
func checkAPIRoutes(root string, report func(string, ...any)) {
	api, err := os.ReadFile(filepath.Join(root, "docs", "API.md"))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	body := string(api)
	for _, route := range serverRoutes(root, report) {
		if !strings.Contains(body, route) {
			report("docscheck: route %q is not documented in docs/API.md", route)
		}
	}
}

// maxEntryBytes bounds one CHANGES.md entry.
const maxEntryBytes = 1200

// historyLink matches a markdown link target under docs/history/.
var historyLink = regexp.MustCompile(`\]\((docs/history/[^)\s]+)\)`)

// checkChangelog requires every CHANGES.md entry to be at most
// maxEntryBytes and every docs/history/ file CHANGES.md links to exist.
func checkChangelog(root string, report func(string, ...any)) {
	raw, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	body := string(raw)
	var entries []string
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.HasPrefix(line, "- ") || len(entries) == 0 {
			entries = append(entries, line)
			continue
		}
		entries[len(entries)-1] += line
	}
	for _, entry := range entries {
		if len(entry) > maxEntryBytes {
			head, _, _ := strings.Cut(entry, ":")
			report("docscheck: CHANGES.md entry %q is %d bytes, over %d: cut it to one paragraph and move the rest to docs/history/",
				head, len(entry), maxEntryBytes)
		}
	}
	for _, m := range historyLink.FindAllStringSubmatch(body, -1) {
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(m[1]))); err != nil {
			report("docscheck: CHANGES.md links %s, which does not exist", m[1])
		}
	}
}

// readmeFlagCell matches a flag as the flag table's first column names
// it: `-name`, possibly after the binary's name or beside a second flag.
var readmeFlagCell = regexp.MustCompile("`-([a-z0-9][a-z0-9-]*)`")

// checkREADMEFlags requires every flag registered under cmd/ or
// internal/ to appear in README.md as `-name` (the flag-table
// convention), and every flag the first column of a table row under
// "## CLI flag reference" names to be registered there.
func checkREADMEFlags(root string, report func(string, ...any)) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	body := string(readme)
	registered := map[string]bool{}
	for _, dir := range goDirs(root, report) {
		rel, _ := filepath.Rel(root, dir)
		if top, _, _ := strings.Cut(filepath.ToSlash(rel), "/"); top != "cmd" && top != "internal" {
			continue
		}
		for _, name := range dirFlags(dir, report) {
			registered[name] = true
			if !strings.Contains(body, "`-"+name+"`") {
				report("docscheck: flag -%s of %s is not documented in README.md (want `-%s`)",
					name, filepath.ToSlash(rel), name)
			}
		}
	}
	_, section, _ := strings.Cut(body, "\n## CLI flag reference\n")
	section, _, _ = strings.Cut(section, "\n## ")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue // not a table row
		}
		for _, m := range readmeFlagCell.FindAllStringSubmatch(cells[1], -1) {
			if !registered[m[1]] {
				report("docscheck: README.md documents flag -%s, which nothing under cmd/ or internal/ registers", m[1])
			}
		}
	}
}
