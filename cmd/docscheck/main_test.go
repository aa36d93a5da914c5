package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChangelogLint: a 2 KB entry and a link to a history file that does
// not exist are reported; one-paragraph entries linking files that exist
// are not.
func TestChangelogLint(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "docs", "history"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "docs", "history", "PR-1.md"), []byte("# PR 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lint := func(changes string) []string {
		if err := os.WriteFile(filepath.Join(root, "CHANGES.md"), []byte(changes), 0o644); err != nil {
			t.Fatal(err)
		}
		var problems []string
		checkChangelog(root, func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf(format, args...))
		})
		return problems
	}
	short := "- PR 1 (x): one paragraph. Full record: [docs/history/PR-1.md](docs/history/PR-1.md).\n"
	if problems := lint(short); len(problems) != 0 {
		t.Errorf("a short entry linking an existing file reported:\n%s", strings.Join(problems, "\n"))
	}
	long := "- PR 2 (y): " + strings.Repeat("a table row ", 170) + "\n\n  | a | b |\n"
	missing := "- PR 3 (z): Full record: [docs/history/PR-3.md](docs/history/PR-3.md).\n"
	problems := lint(short + long + missing)
	joined := strings.Join(problems, "\n")
	for _, want := range []string{`entry "- PR 2 (y)" is 20`, "links docs/history/PR-3.md"} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint does not report %q:\n%s", want, joined)
		}
	}
	if len(problems) != 2 {
		t.Errorf("want 2 problems, got %d:\n%s", len(problems), joined)
	}
}

// TestFlagSetBindingIsLinted: a flag registered through a *flag.FlagSet
// parameter in an internal package — the way core.Spec.BindFlags binds
// insips' run flags — must be documented like one registered on the
// package flag in a cmd/ binary, and a README row naming neither fails.
func TestFlagSetBindingIsLinted(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/tool/main.go", `package main

import "flag"

func main() {
	flag.Int("direct", 0, "")
	flag.Parse()
}
`)
	write("internal/spec/spec.go", `package spec

import "flag"

func Bind(fs *flag.FlagSet, v flag.Value) {
	fs.Int("bound", 0, "")
	fs.Var(v, "bound-value", "")
}
`)
	write("internal/spec/spec_test.go", `package spec

import "flag"

func bindTest(fs *flag.FlagSet) { fs.Int("test-only", 0, "") }
`)
	lint := func(rows ...string) []string {
		write("README.md", "# tool\n\n## CLI flag reference\n\n| Flag | Meaning |\n|---|---|\n"+strings.Join(rows, "\n")+"\n")
		var problems []string
		checkREADMEFlags(root, func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf(format, args...))
		})
		return problems
	}

	problems := lint("| `-direct` | x |", "| `-gone` | x |")
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"flag -bound of internal/spec", "flag -bound-value of internal/spec", "documents flag -gone"} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint does not report %q:\n%s", want, joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("want 3 problems, got %d:\n%s", len(problems), joined)
	}
	if problems := lint("| `-direct` | x |", "| `-bound` | x |", "| `-bound-value` | x |"); len(problems) != 0 {
		t.Errorf("fully documented tree reported:\n%s", strings.Join(problems, "\n"))
	}
}
