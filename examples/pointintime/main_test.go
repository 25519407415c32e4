package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestExample runs the example's main and checks that it ends on its ok:
// line (a failed step exits non-zero through log.Fatal).
func TestExample(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout
	w.Close()
	lines := strings.Split(strings.TrimSpace(<-out), "\n")
	if got, want := lines[len(lines)-1], "ok: every historical value recovered exactly"; got != want {
		t.Fatalf("the example printed\n%s\nending on %q, want %q", strings.Join(lines, "\n"), got, want)
	}
}
