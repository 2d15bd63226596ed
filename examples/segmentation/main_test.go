package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the example end to end over its localhost sockets: it exits
// zero and prints the validation of the mask against the reference labels.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/segmentation: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "precision:") {
		t.Fatalf("output has no precision line:\n%s", out)
	}
}
