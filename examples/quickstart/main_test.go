package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the example the way a user does: it exits zero, and the GPU
// batch job it submits completes.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v\n%s", err, out)
	}
	if want := "job done=true"; !strings.Contains(string(out), want) {
		t.Fatalf("output has no %q:\n%s", want, out)
	}
}
