package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the command the way a user does: it exits zero and reports
// a healthy Ceph cluster under the node table.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("nautilus: %v\n%s", err, out)
	}
	if want := "512/512 PGs active"; !strings.Contains(string(out), want) {
		t.Fatalf("output has no %q:\n%s", want, out)
	}
}
