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
//  2. Every CLI flag registered by a cmd/ binary appears in README.md's
//     flag table as `-name`, and every `-name` in the first column of
//     that table is registered by some cmd/ binary, so the README can
//     neither silently fall behind the binaries nor outlive a flag.
//     Flags are discovered by parsing the source for
//     flag.String/Bool/... calls — adding a flag without documenting it,
//     or removing one and leaving its row, fails CI.
//  3. Every HTTP route insipsd registers (the "METHOD /path" patterns
//     passed to mux.HandleFunc in internal/server) appears verbatim in
//     docs/API.md, so the API reference cannot silently fall behind the
//     service — adding a route without documenting it fails CI.
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
}

// binaryFlags parses one cmd/<name> directory and returns the names of
// every flag it registers.
func binaryFlags(dir string, report func(string, ...any)) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		report("docscheck: parsing %s: %v", dir, err)
		return nil
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagFuncs[sel.Sel.Name] {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok || ident.Name != "flag" {
					return true
				}
				argIdx := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					argIdx = 1 // (pointer, name, ...)
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
		}
	}
	sort.Strings(names)
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

// readmeFlagCell matches a flag as the flag table's first column names
// it: `-name`, possibly after the binary's name or beside a second flag.
var readmeFlagCell = regexp.MustCompile("`-([a-z0-9][a-z0-9-]*)`")

// checkREADMEFlags requires every flag of every cmd/ binary to appear in
// README.md as `-name` (the flag-table convention), and every flag the
// first column of a table row under "## CLI flag reference" names to be
// registered by some cmd/ binary.
func checkREADMEFlags(root string, report func(string, ...any)) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	body := string(readme)
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		report("docscheck: %v", err)
		return
	}
	registered := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, "cmd", e.Name())
		for _, name := range binaryFlags(dir, report) {
			registered[name] = true
			if !strings.Contains(body, "`-"+name+"`") {
				report("docscheck: flag -%s of cmd/%s is not documented in README.md (want `-%s`)",
					name, e.Name(), name)
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
				report("docscheck: README.md documents flag -%s, which no cmd/ binary registers", m[1])
			}
		}
	}
}
