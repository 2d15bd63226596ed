package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Mount edge cases: path cleaning, overwrite semantics, implicit-directory
// listing, and read-after-OSD-loss heal — the behaviors the dataset plane
// leans on.

func TestMountLeadingSlashCleaned(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	m := s.MountBucket("data")
	if err := m.WriteFile("/a/b.bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The slashed and unslashed spellings are the same file.
	got, err := m.ReadFile("a/b.bin")
	if err != nil {
		t.Fatalf("unslashed read of slashed write: %v", err)
	}
	if !bytes.Equal(got, []byte("x")) {
		t.Fatalf("read %q", got)
	}
	if err := m.WriteFile("a/b.bin", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, _ = m.ReadFile("/a/b.bin"); !bytes.Equal(got, []byte("y")) {
		t.Fatalf("slashed read after unslashed overwrite: %q", got)
	}
	if sz, ok := m.Stat("/a/b.bin"); !ok || sz != 1 {
		t.Fatalf("Stat = %v, %v", sz, ok)
	}
	if err := m.Remove("/a/b.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("a/b.bin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after slashed remove: %v", err)
	}
}

func TestMountOverwriteReplacesContentAndAccounting(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	m := s.MountBucket("data")
	if err := m.WriteFile("v", bytes.Repeat([]byte("a"), 1000)); err != nil {
		t.Fatal(err)
	}
	before := s.TotalUsed()
	// Overwrite with smaller content: bytes replaced, usage shrinks, no
	// duplicate key appears in listings.
	if err := m.WriteFile("v", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("v")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tiny" {
		t.Fatalf("read %q after overwrite", got)
	}
	if after := s.TotalUsed(); after >= before {
		t.Fatalf("usage %v not reduced from %v by shrinking overwrite", after, before)
	}
	if ls := s.List("data"); len(ls) != 1 || ls[0] != "v" {
		t.Fatalf("List after overwrite = %v", ls)
	}
	// Overwriting a real file with a size-only record drops the bytes.
	if _, err := s.Put("data", "v", 5e6, nil); err != nil {
		t.Fatal(err)
	}
	if got, err = m.ReadFile("v"); err != nil || got != nil {
		t.Fatalf("size-only overwrite: data=%v err=%v", got, err)
	}
	if sz, ok := m.Stat("v"); !ok || sz != 5e6 {
		t.Fatalf("Stat after size-only overwrite = %v, %v", sz, ok)
	}
}

func TestMountReadAfterOSDLossHeals(t *testing.T) {
	c, s := newTestStore(6, Config{Replicas: 3})
	m := s.MountBucket("data")
	payloads := make(map[string][]byte)
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("ds/%02d.bin", i)
		payloads[p] = bytes.Repeat([]byte{byte(i)}, 64)
		if err := m.WriteFile(p, payloads[p]); err != nil {
			t.Fatal(err)
		}
	}
	// Lose an OSD: every file stays readable through surviving replicas,
	// bytes intact.
	if _, err := s.FailOSD("osd-01"); err != nil {
		t.Fatal(err)
	}
	for p, want := range payloads {
		got, err := m.ReadFile(p)
		if err != nil {
			t.Fatalf("%s after OSD loss: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted after OSD loss", p)
		}
	}
	if !s.Recovering() {
		t.Fatal("store not re-replicating after losing a populated OSD")
	}
	// Drain virtual time: the heal completes and every file is back to
	// full replication on up OSDs.
	c.Run()
	if s.Recovering() {
		t.Fatal("still recovering after clock drained")
	}
	if h := s.HealthReport(); !h.OK() {
		t.Fatalf("health not OK after heal: %+v", h)
	}
	for p, want := range payloads {
		got, err := m.ReadFile(p)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after heal: %v", p, err)
		}
		locs := s.Locations("data", p)
		if len(locs) != 3 {
			t.Fatalf("%s has %d replicas after heal, want 3", p, len(locs))
		}
		for _, id := range locs {
			if id == "osd-01" || !s.osds[id].Up {
				t.Fatalf("%s replica on down OSD %s after heal", p, id)
			}
		}
	}
}
