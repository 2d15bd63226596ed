package objstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

func TestSizeOnlyObject(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	if _, err := s.Put("b", "bulk", 1e9, nil); err != nil {
		t.Fatal(err)
	}
	if sz, ok := s.Stat("b", "bulk"); !ok || sz != 1e9 {
		t.Fatalf("Stat = %v,%v want 1e9,true", sz, ok)
	}
	obj, err := s.Get("b", "bulk")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Data != nil || obj.Size != 1e9 {
		t.Fatalf("object = %d bytes of data, size %v; want no data, size 1e9", len(obj.Data), obj.Size)
	}
	if got := s.TotalUsed(); got != 3e9 {
		t.Fatalf("TotalUsed = %v, want 3e9", got)
	}
	data, err := s.MountBucket("b").ReadFile("bulk")
	if err != nil || data != nil {
		t.Fatalf("ReadFile of size-only file = %v,%v; want nil,nil", data, err)
	}
}

func TestPutRejectsNegativeSize(t *testing.T) {
	_, s := newTestStore(3, Config{})
	if _, err := s.Put("b", "k", -1, nil); err == nil {
		t.Fatal("Put with negative size succeeded")
	}
	if _, ok := s.Stat("b", "k"); ok {
		t.Fatal("rejected Put left an object behind")
	}
	if got := s.TotalUsed(); got != 0 {
		t.Fatalf("TotalUsed = %v after a rejected Put, want 0", got)
	}
}

func TestPutSizeDefaultsToDataLength(t *testing.T) {
	_, s := newTestStore(3, Config{Replicas: 1})
	cases := []struct {
		name string
		size float64
		data []byte
		want float64
	}{
		{"zero size takes the data length", 0, []byte("abcd"), 4},
		{"explicit size is authoritative", 100, []byte("abcd"), 100},
		{"empty data is zero bytes", 0, []byte{}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := s.Put("b", c.name, c.size, c.data); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Stat("b", c.name); sz != c.want {
				t.Fatalf("size = %v, want %v", sz, c.want)
			}
		})
	}
}

func TestStatMissing(t *testing.T) {
	_, s := newTestStore(3, Config{})
	s.Put("b", "k", 5, nil)
	for _, k := range [][2]string{{"b", "other"}, {"other", "k"}} {
		if sz, ok := s.Stat(k[0], k[1]); ok || sz != 0 {
			t.Fatalf("Stat(%s/%s) = %v,%v; want 0,false", k[0], k[1], sz, ok)
		}
	}
}

func TestLargeObjectRoundTrip(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	payload := bytes.Repeat([]byte("granule"), 100000) // 700 KB
	if _, err := s.Put("big", "object", 0, payload); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get("big", "object")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Data, payload) {
		t.Fatalf("large object corrupted: %d vs %d bytes", len(obj.Data), len(payload))
	}
	if obj.Size != float64(len(payload)) {
		t.Fatalf("size = %v, want %d", obj.Size, len(payload))
	}
}

func TestKeysWithSlashes(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	const key = "a/b/c/d.nc"
	if _, err := s.Put("b", key, 0, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get("b", key)
	if err != nil || string(obj.Data) != "deep" {
		t.Fatalf("nested key = %v, %v", obj, err)
	}
	if got := s.List("b"); len(got) != 1 || got[0] != key {
		t.Fatalf("List = %v", got)
	}
}

func TestBucketsAreIsolated(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	s.Put("one", "k", 0, []byte("first"))
	s.Put("two", "k", 0, []byte("second"))
	for bucket, want := range map[string]string{"one": "first", "two": "second"} {
		obj, err := s.Get(bucket, "k")
		if err != nil || string(obj.Data) != want {
			t.Fatalf("%s/k = %v, %v; want %q", bucket, obj, err, want)
		}
	}
	if err := s.Delete("one", "k"); err != nil {
		t.Fatal(err)
	}
	if got := s.List("one"); len(got) != 0 {
		t.Fatalf("List(one) after delete = %v", got)
	}
	if got := s.List("two"); len(got) != 1 || got[0] != "k" {
		t.Fatalf("List(two) = %v; a delete in another bucket touched it", got)
	}
}

func TestMissingBucketIsEmpty(t *testing.T) {
	_, s := newTestStore(3, Config{})
	if got := s.List("nobody"); len(got) != 0 {
		t.Fatalf("List = %v", got)
	}
	if got := s.BucketSize("nobody"); got != 0 {
		t.Fatalf("BucketSize = %v", got)
	}
	if got := s.Locations("nobody", "k"); got != nil {
		t.Fatalf("Locations = %v, want nil", got)
	}
}

func TestBucketSizeTracksObjects(t *testing.T) {
	// Each step runs on the store the previous steps left behind.
	_, s := newTestStore(4, Config{Replicas: 2})
	steps := []struct {
		name string
		op   func() error
		want float64
	}{
		{"put a", func() error { _, err := s.Put("b", "a", 10, nil); return err }, 10},
		{"put b", func() error { _, err := s.Put("b", "b", 32, nil); return err }, 42},
		{"overwrite a", func() error { _, err := s.Put("b", "a", 3, nil); return err }, 35},
		{"put elsewhere", func() error { _, err := s.Put("c", "a", 1000, nil); return err }, 35},
		{"delete b", func() error { return s.Delete("b", "b") }, 3},
		{"delete a", func() error { return s.Delete("b", "a") }, 0},
	}
	for _, st := range steps {
		if !t.Run(st.name, func(t *testing.T) {
			if err := st.op(); err != nil {
				t.Fatal(err)
			}
			if got := s.BucketSize("b"); got != st.want {
				t.Fatalf("BucketSize = %v, want %v", got, st.want)
			}
		}) {
			return
		}
	}
}

func TestReadsFailTransientlyWithEveryOSDDown(t *testing.T) {
	c, s := newTestStore(2, Config{Replicas: 2, PGs: 8})
	s.Put("b", "k", 0, []byte("x"))
	for _, id := range []string{"osd-00", "osd-01"} {
		if _, err := s.FailOSD(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("b", "k"); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("Get with every OSD down: err = %v, want ErrAllReplicasDown", err)
	}
	if _, ok := s.Stat("b", "k"); !ok {
		t.Fatal("object vanished while its OSDs were down")
	}
	if _, err := s.Put("b", "new", 1, nil); err != ErrNoOSDs {
		t.Fatalf("Put with every OSD down: err = %v, want ErrNoOSDs", err)
	}
	if err := s.RecoverOSD("osd-01"); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get("b", "k")
	if err != nil || string(obj.Data) != "x" {
		t.Fatalf("Get after recovery = %v, %v", obj, err)
	}
	c.Run()
}

func TestTotalCapacityCountsUpOSDs(t *testing.T) {
	c, s := newTestStore(4, Config{Replicas: 2})
	if got := s.TotalCapacity(); got != 4e12 {
		t.Fatalf("TotalCapacity = %v, want 4e12", got)
	}
	s.FailOSD("osd-02")
	if got := s.TotalCapacity(); got != 3e12 {
		t.Fatalf("TotalCapacity with one OSD down = %v, want 3e12", got)
	}
	s.RecoverOSD("osd-02")
	if got := s.TotalCapacity(); got != 4e12 {
		t.Fatalf("TotalCapacity after recovery = %v, want 4e12", got)
	}
	c.Run()
}

func TestFailOSDTwiceRecoversNothing(t *testing.T) {
	c, s := newTestStore(4, Config{Replicas: 2})
	for i := 0; i < 20; i++ {
		s.Put("b", string(rune('a'+i)), 100, nil)
	}
	if n, err := s.FailOSD("osd-01"); err != nil || n <= 0 {
		t.Fatalf("first FailOSD = %v,%v; want bytes to recover", n, err)
	}
	if n, err := s.FailOSD("osd-01"); err != nil || n != 0 {
		t.Fatalf("second FailOSD = %v,%v; want 0,nil", n, err)
	}
	c.Run()
}

func TestRecoverUnknownOSD(t *testing.T) {
	_, s := newTestStore(2, Config{})
	if err := s.RecoverOSD("nope"); err != ErrOSDUnknown {
		t.Fatalf("err = %v, want ErrOSDUnknown", err)
	}
}

func TestRecoveryTimeFollowsRate(t *testing.T) {
	// 400 bytes to re-replicate at 10 B/s per surviving OSD, 4 survivors:
	// recovery takes 10 s of virtual time.
	c := sim.NewClock()
	s := NewStore(c, nil, Config{Replicas: 5, PGs: 4, RecoveryRate: 10})
	for i := 0; i < 5; i++ {
		s.AddOSD(string(rune('a'+i)), "site", 1e12, 1)
	}
	for i := 0; i < 4; i++ {
		s.Put("b", string(rune('k'+i)), 100, nil)
	}
	n, err := s.FailOSD("c")
	if err != nil || n != 400 {
		t.Fatalf("FailOSD = %v,%v; want 400 bytes (every object had a replica there)", n, err)
	}
	c.RunUntil(10*time.Second - time.Millisecond)
	if !s.Recovering() {
		t.Fatal("recovery finished early")
	}
	c.RunUntil(10 * time.Second)
	if s.Recovering() {
		t.Fatal("still recovering at 10 s")
	}
}

func TestHealthOK(t *testing.T) {
	cases := []struct {
		name string
		h    Health
		want bool
	}{
		{"all active", Health{PGsTotal: 8, PGsActive: 8}, true},
		{"degraded", Health{PGsTotal: 8, PGsActive: 7, PGsDegraded: 1}, false},
		{"undersized", Health{PGsTotal: 8, PGsActive: 7, PGsUndersized: 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.h.OK(); got != c.want {
				t.Fatalf("OK() = %v, want %v", got, c.want)
			}
		})
	}
}

func TestHealthGaugesPublished(t *testing.T) {
	c := sim.NewClock()
	reg := metrics.NewRegistry(c)
	s := NewStore(c, reg, Config{Replicas: 3, PGs: 16})
	for i := 0; i < 3; i++ {
		s.AddOSD(string(rune('a'+i)), "site", 1e12, 1)
	}
	s.Put("b", "k", 250, nil)
	last := func(name string) float64 {
		t.Helper()
		series := reg.Select(name, nil)
		if len(series) != 1 || len(series[0].Samples) == 0 {
			t.Fatalf("%s: %d series", name, len(series))
		}
		return series[0].Samples[len(series[0].Samples)-1].Value
	}
	if got := last("ceph_bytes_stored"); got != 250 {
		t.Fatalf("ceph_bytes_stored = %v, want 250", got)
	}
	if got := last("ceph_pgs_degraded"); got != 0 {
		t.Fatalf("ceph_pgs_degraded = %v on a healthy store", got)
	}
	s.FailOSD("b")
	if got := last("ceph_pgs_degraded"); got != 16 {
		t.Fatalf("ceph_pgs_degraded = %v with 2 of 3 replicas placeable, want 16", got)
	}
	c.Run()
}

func TestOSDsInIDOrder(t *testing.T) {
	c := sim.NewClock()
	s := NewStore(c, nil, Config{})
	for _, id := range []string{"osd-c", "osd-a", "osd-b"} {
		s.AddOSD(id, "site", 1, 0)
	}
	osds := s.OSDs()
	for i, want := range []string{"osd-a", "osd-b", "osd-c"} {
		if osds[i].ID != want {
			t.Fatalf("OSDs()[%d] = %s, want %s", i, osds[i].ID, want)
		}
		if osds[i].Weight != 1 || !osds[i].Up {
			t.Fatalf("%s: weight %v up %v; want weight 1 (non-positive weights default), up", want, osds[i].Weight, osds[i].Up)
		}
	}
	if s.osds["osd-z"] != nil {
		t.Fatal("OSD of an unknown id is not nil")
	}
}

func TestMountRemove(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	m := s.MountBucket("b")
	m.WriteFile("/dir/f", []byte("data"))
	if sz, ok := m.Stat("dir/f"); !ok || sz != 4 {
		t.Fatalf("Stat = %v,%v; want 4,true", sz, ok)
	}
	if err := m.Remove("/dir/f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Stat("/dir/f"); ok {
		t.Fatal("file survives Remove")
	}
	if err := m.Remove("dir/f"); err != ErrNotFound {
		t.Fatalf("second Remove err = %v, want ErrNotFound", err)
	}
	if _, err := m.ReadFile("dir/f"); err != ErrNotFound {
		t.Fatalf("ReadFile of removed file err = %v, want ErrNotFound", err)
	}
}

func TestMountForwardsFaults(t *testing.T) {
	c, s := newTestStore(4, Config{Replicas: 2})
	m := s.MountBucket("b")
	s.Put("b", "f", 100, nil)
	if _, err := m.FailOSD("nope"); err != ErrOSDUnknown {
		t.Fatalf("FailOSD unknown err = %v", err)
	}
	victim := m.ReplicaPlacement("/f")[0].OSD
	if n, err := m.FailOSD(victim); err != nil || n != 100 {
		t.Fatalf("FailOSD(%s) = %v,%v; want 100 bytes to recover", victim, n, err)
	}
	if s.osds[victim].Up {
		t.Fatal("mount's FailOSD did not reach the store")
	}
	if err := m.RecoverOSD(victim); err != nil || !s.osds[victim].Up {
		t.Fatalf("RecoverOSD = %v, up %v", err, s.osds[victim].Up)
	}
	c.Run()
}
