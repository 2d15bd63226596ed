package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the command the way a user does, every table and figure at
// 200 granules: it exits zero and prints Table I.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-all", "-scale", "200").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab -all -scale 200: %v\n%s", err, out)
	}
	if want := "Table I — Nautilus resource summary"; !strings.Contains(string(out), want) {
		t.Fatalf("output has no %q:\n%s", want, out)
	}
}
