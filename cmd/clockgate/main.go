// Command clockgate enforces the repository's injected-clock guardrail
// statically: the core packages (wal, engine, repl, asof, storage) must
// read time only through internal/clock (or an injected Now func), never
// from the runtime directly — that is what makes every durability schedule,
// retention horizon, lag observation and histogram content reproducible at
// exact virtual instants in tests.
//
// It parses every non-test Go file under the gated trees and fails on any
// call to time.Now, time.Sleep or time.After; there are no exceptions. Run
// from the repo root:
//
//	go run ./cmd/clockgate            # exits 1 and lists violations
//	go run ./cmd/clockgate -root DIR
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
	"sort"
	"strings"
)

// gated are the directory trees under the guardrail — the layers whose
// schedules the virtual-clock tests replay.
var gated = []string{
	"internal/wal",
	"internal/engine",
	"internal/repl",
	"internal/asof",
	"internal/storage",
}

// banned are the time-package functions that smuggle the runtime clock in.
// (NewTimer/NewTicker are not listed: they pace real-goroutine wakeups, and
// every gated use feeds a select that also honors the injected clock.)
var banned = map[string]bool{"Now": true, "Sleep": true, "After": true}

func main() {
	root := flag.String("root", ".", "repository root to scan")
	flag.Parse()

	violations, err := scan(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clockgate:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "clockgate:", v)
		}
		fmt.Fprintf(os.Stderr, "clockgate: %d violation(s); route time through internal/clock (see ROADMAP: determinism guardrail)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("clockgate: ok")
}

// scan reports, sorted, every banned time-package call in the non-test Go
// files of the gated trees under root.
func scan(root string) ([]string, error) {
	var violations []string
	fset := token.NewFileSet()
	for _, dir := range gated {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			vs, err := scanFile(fset, path, filepath.ToSlash(rel))
			if err != nil {
				return err
			}
			violations = append(violations, vs...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(violations)
	return violations, nil
}

// scanFile reports banned time-package calls in one file.
func scanFile(fset *token.FileSet, path, rel string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	// Resolve the local name of the "time" import; a dot-import would make
	// selector matching impossible, so it is banned outright in gated code.
	timeName := ""
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "time" {
			continue
		}
		switch {
		case imp.Name == nil:
			timeName = "time"
		case imp.Name.Name == ".":
			return []string{fmt.Sprintf("%s: dot-imports the time package", rel)}, nil
		case imp.Name.Name == "_":
		default:
			timeName = imp.Name.Name
		}
	}
	if timeName == "" {
		return nil, nil
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != timeName || !banned[sel.Sel.Name] {
			return true
		}
		pos := fset.Position(sel.Pos())
		out = append(out, fmt.Sprintf("%s:%d: time.%s in gated package (inject internal/clock instead)",
			rel, pos.Line, sel.Sel.Name))
		return true
	})
	return out, nil
}
