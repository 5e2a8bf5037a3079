package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestExperimentsGolden runs the whole experiment suite and diffs its
// output against the committed EXPERIMENTS.md. The output is a pure
// function of the analysis (no timings, no map order), so any difference
// is a change in a reproduced result and must be reviewed, not ignored.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		got <- data
	}()
	func() {
		defer func() { os.Stdout = stdout; w.Close() }()
		main()
	}()
	out := <-got
	r.Close()
	if bytes.Equal(out, want) {
		return
	}
	gotLines := strings.Split(string(out), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("silexp output differs from EXPERIMENTS.md at line %d:\n got: %q\nwant: %q\n"+
				"if the change is intended, regenerate with: go run ./cmd/silexp > EXPERIMENTS.md", i+1, g, w)
		}
	}
	t.Fatal("silexp output differs from EXPERIMENTS.md; regenerate with: go run ./cmd/silexp > EXPERIMENTS.md")
}
