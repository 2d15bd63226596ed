package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the command the way a user does, every table and figure at
// 200 granules: it exits zero, prints Table I, and Figure 1's Ceph cluster
// heals back to every placement group active.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-all", "-scale", "200").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab -all -scale 200: %v\n%s", err, out)
	}
	for _, want := range []string{"Table I — Nautilus resource summary", "512/512 PGs active"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output has no %q:\n%s", want, out)
		}
	}
}
