package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke runs the command the way a user does, at 200 granules with the
// real-compute half on: it exits zero and reports what the trained model
// segmented, with both artifacts replicated in the cluster's store.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-scale", "200").CombinedOutput()
	if err != nil {
		t.Fatalf("connectwf -scale 200: %v\n%s", err, out)
	}
	for _, want := range []string{"4-visualize    Succeeded", "segmentation precision", "checkpoint", "3 replicas: ceph://datasets/"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output has no %q:\n%s", want, out)
		}
	}
}
