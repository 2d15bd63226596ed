package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the example the way a user does: it exits zero and prints
// the inference-scaling table.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/scaling: %v\n%s", err, out)
	}
	if want := "inference scaling:"; !strings.Contains(string(out), want) {
		t.Fatalf("output has no %q:\n%s", want, out)
	}
}
