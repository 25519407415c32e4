package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tree writes files (repo-relative path → source) under a fresh root that
// holds every gated directory, so scan walks them all.
func tree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for _, dir := range gated {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func scanTree(t *testing.T, files map[string]string) []string {
	t.Helper()
	vs, err := scan(tree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestSleepInGatedPackageReported(t *testing.T) {
	vs := scanTree(t, map[string]string{
		"internal/repl/pace.go": "package repl\n\nimport \"time\"\n\nfunc pace() { time.Sleep(time.Millisecond) }\n",
	})
	if len(vs) != 1 || !strings.HasPrefix(vs[0], "internal/repl/pace.go:5: time.Sleep") {
		t.Fatalf("violations = %q, want one time.Sleep at internal/repl/pace.go:5", vs)
	}
}

func TestAliasedTimeImportCaught(t *testing.T) {
	vs := scanTree(t, map[string]string{
		"internal/wal/stamp.go": "package wal\n\nimport t \"time\"\n\nfunc stamp() int64 { return t.Now().UnixNano() }\n",
	})
	if len(vs) != 1 || !strings.Contains(vs[0], "internal/wal/stamp.go:5: time.Now") {
		t.Fatalf("violations = %q, want one aliased time.Now", vs)
	}
}

func TestDotImportRefused(t *testing.T) {
	vs := scanTree(t, map[string]string{
		"internal/engine/dot.go": "package engine\n\nimport . \"time\"\n\nvar _ = Second\n",
	})
	if len(vs) != 1 || !strings.Contains(vs[0], "internal/engine/dot.go: dot-imports the time package") {
		t.Fatalf("violations = %q, want the dot-import refused", vs)
	}
}

func TestTestFilesAndUngatedTreesIgnored(t *testing.T) {
	vs := scanTree(t, map[string]string{
		"internal/asof/wait_test.go":    "package asof\n\nimport \"time\"\n\nfunc wait() { time.Sleep(time.Millisecond) }\n",
		"internal/exp/wall.go":          "package exp\n\nimport \"time\"\n\nfunc wall() time.Time { return time.Now() }\n",
		"internal/storage/disk/ok.go":   "package disk\n\nimport \"time\"\n\nvar tick = time.NewTicker\n",
		"internal/storage/disk/none.go": "package disk\n\nfunc none() {}\n",
	})
	if len(vs) != 0 {
		t.Fatalf("violations = %q, want none", vs)
	}
}
