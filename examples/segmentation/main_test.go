package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs the example end to end over its localhost sockets: it exits
// zero, ingests the twelve subsets into the dataset whose id pins their
// bytes and time order, and prints the validation of the mask against the
// reference labels.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/segmentation: %v\n%s", err, out)
	}
	const ingest = "step 1: downloaded 12 IVT subsets (41892 bytes) over HTTP into dataset d4de8c9296f4"
	if !slices.Contains(strings.Split(string(out), "\n"), ingest) {
		t.Fatalf("output has no line %q:\n%s", ingest, out)
	}
	if !strings.Contains(string(out), "precision:") {
		t.Fatalf("output has no precision line:\n%s", out)
	}
}
