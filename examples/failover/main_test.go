package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the example the way a user does: it exits zero, and the
// download lands every byte despite the nodes it kills.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/failover: %v\n%s", err, out)
	}
	if want := "every message exactly once"; !strings.Contains(string(out), want) {
		t.Fatalf("output has no %q:\n%s", want, out)
	}
}
