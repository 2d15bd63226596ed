package objstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"chaseci/internal/sim"
)

func newTestStore(osds int, cfg Config) (*sim.Clock, *Store) {
	c := sim.NewClock()
	s := NewStore(c, nil, cfg)
	for i := 0; i < osds; i++ {
		s.AddOSD(fmt.Sprintf("osd-%02d", i), fmt.Sprintf("site-%d", i%4), 1e12, 1)
	}
	return c, s
}

func TestPutGetRoundTrip(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	data := []byte("ivt volume bytes")
	if _, err := s.Put("connect", "train/vol0", 0, data); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get("connect", "train/vol0")
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Data) != string(data) {
		t.Fatalf("data = %q, want %q", obj.Data, data)
	}
	if obj.Size != float64(len(data)) {
		t.Fatalf("size = %v, want %d", obj.Size, len(data))
	}
}

func TestGetMissing(t *testing.T) {
	_, s := newTestStore(3, Config{})
	if _, err := s.Get("b", "nope"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestReplicasAreDistinctOSDs(t *testing.T) {
	_, s := newTestStore(8, Config{Replicas: 3})
	locs, err := s.Put("b", "k", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("got %d replicas, want 3", len(locs))
	}
	seen := map[string]bool{}
	for _, id := range locs {
		if seen[id] {
			t.Fatalf("replica set has duplicate OSD %s", id)
		}
		seen[id] = true
	}
}

func TestUsageAccountsReplication(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	s.Put("b", "k", 1000, nil)
	if got := s.TotalUsed(); got != 3000 {
		t.Fatalf("TotalUsed = %v, want 3000 (3x replication)", got)
	}
	h := s.HealthReport()
	if h.BytesStored != 1000 || h.BytesRaw != 3000 {
		t.Fatalf("health bytes = %v/%v, want 1000/3000", h.BytesStored, h.BytesRaw)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 2})
	s.Put("b", "k", 1000, nil)
	s.Put("b", "k", 500, nil)
	if got := s.TotalUsed(); got != 1000 {
		t.Fatalf("TotalUsed after overwrite = %v, want 1000", got)
	}
	if sz, ok := s.Stat("b", "k"); !ok || sz != 500 {
		t.Fatalf("Stat = %v,%v want 500,true", sz, ok)
	}
}

func TestDelete(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	s.Put("b", "k", 100, nil)
	if err := s.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if s.TotalUsed() != 0 {
		t.Fatalf("TotalUsed after delete = %v, want 0", s.TotalUsed())
	}
	if err := s.Delete("b", "k"); err != ErrNotFound {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestListSorted(t *testing.T) {
	_, s := newTestStore(3, Config{})
	for _, k := range []string{"c", "a", "b"} {
		s.Put("bkt", k, 1, nil)
	}
	got := s.List("bkt")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	_, s1 := newTestStore(10, Config{Replicas: 3, PGs: 64})
	_, s2 := newTestStore(10, Config{Replicas: 3, PGs: 64})
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("file-%d", i)
		s1.Put("b", k, 1, nil)
		s2.Put("b", k, 1, nil)
		l1, l2 := s1.Locations("b", k), s2.Locations("b", k)
		for j := range l1 {
			if l1[j] != l2[j] {
				t.Fatalf("placement of %s differs: %v vs %v", k, l1, l2)
			}
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	// Ceph sizing guidance is ~100 PGs per OSD; with too few PGs the
	// placement is lumpy, exactly as on a real cluster.
	_, s := newTestStore(10, Config{Replicas: 3, PGs: 1024})
	const n = 5000
	for i := 0; i < n; i++ {
		s.Put("b", fmt.Sprintf("f-%05d", i), 1, nil)
	}
	mean := s.TotalUsed() / 10
	for _, o := range s.OSDs() {
		if o.Used() < mean*0.5 || o.Used() > mean*1.5 {
			t.Fatalf("OSD %s holds %v bytes, mean %v: badly unbalanced", o.ID, o.Used(), mean)
		}
	}
}

func TestWeightedPlacement(t *testing.T) {
	c := sim.NewClock()
	s := NewStore(c, nil, Config{Replicas: 1, PGs: 512})
	s.AddOSD("small", "a", 1e12, 1)
	s.AddOSD("big", "a", 1e12, 3)
	for i := 0; i < 3000; i++ {
		s.Put("b", fmt.Sprintf("f-%d", i), 1, nil)
	}
	small, big := s.osds["small"].Used(), s.osds["big"].Used()
	ratio := big / small
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("weight-3 OSD holds %vx the data of weight-1, want ~3x", ratio)
	}
}

func TestFailOSDKeepsDataReadable(t *testing.T) {
	c, s := newTestStore(8, Config{Replicas: 3})
	for i := 0; i < 100; i++ {
		s.Put("b", fmt.Sprintf("f-%d", i), 100, nil)
	}
	if _, err := s.FailOSD("osd-00"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Get("b", fmt.Sprintf("f-%d", i)); err != nil {
			t.Fatalf("read after single OSD failure: %v", err)
		}
	}
	c.Run()
	if s.Recovering() {
		t.Fatal("still recovering after clock drained")
	}
}

func TestFailOSDRestoresReplicaCount(t *testing.T) {
	c, s := newTestStore(8, Config{Replicas: 3})
	for i := 0; i < 100; i++ {
		s.Put("b", fmt.Sprintf("f-%d", i), 100, nil)
	}
	recov, _ := s.FailOSD("osd-03")
	if recov <= 0 {
		t.Fatal("expected bytes to recover after failing a populated OSD")
	}
	c.Run()
	for i := 0; i < 100; i++ {
		locs := s.Locations("b", fmt.Sprintf("f-%d", i))
		if len(locs) != 3 {
			t.Fatalf("object has %d replicas after recovery, want 3", len(locs))
		}
		for _, id := range locs {
			if id == "osd-03" {
				t.Fatal("replica still mapped to failed OSD")
			}
			if !s.osds[id].Up {
				t.Fatal("replica mapped to down OSD")
			}
		}
	}
	if !s.HealthReport().OK() {
		t.Fatalf("health not OK after recovery: %+v", s.HealthReport())
	}
}

func TestFailBelowReplicationUndersized(t *testing.T) {
	_, s := newTestStore(3, Config{Replicas: 3, PGs: 16})
	s.Put("b", "k", 100, nil)
	s.FailOSD("osd-00")
	h := s.HealthReport()
	if h.PGsUndersized+h.PGsDegraded != h.PGsTotal {
		t.Fatalf("with 2 up OSDs and 3 replicas all PGs should be short: %+v", h)
	}
}

func TestRecoverOSDRejoins(t *testing.T) {
	_, s := newTestStore(3, Config{Replicas: 3, PGs: 16})
	s.Put("b", "k", 100, nil)
	s.FailOSD("osd-01")
	if err := s.RecoverOSD("osd-01"); err != nil {
		t.Fatal(err)
	}
	if h := s.HealthReport(); h.PGsActive != h.PGsTotal {
		t.Fatalf("after rejoin health = %+v, want all active", h)
	}
}

func TestFailUnknownOSD(t *testing.T) {
	_, s := newTestStore(2, Config{})
	if _, err := s.FailOSD("nope"); err != ErrOSDUnknown {
		t.Fatalf("err = %v, want ErrOSDUnknown", err)
	}
}

func TestPlacementStabilityUnderFailure(t *testing.T) {
	// Straw2 property: failing one OSD must not shuffle replicas among
	// surviving OSDs — each PG keeps its surviving members.
	_, s := newTestStore(10, Config{Replicas: 3, PGs: 128})
	before := make(map[int][]string)
	for pg, locs := range s.pgMap {
		before[pg] = append([]string(nil), locs...)
	}
	s.FailOSD("osd-05")
	for pg, after := range s.pgMap {
		kept := map[string]bool{}
		for _, id := range after {
			kept[id] = true
		}
		for _, id := range before[pg] {
			if id == "osd-05" {
				continue
			}
			if !kept[id] {
				t.Fatalf("pg %d lost surviving replica %s after unrelated failure", pg, id)
			}
		}
	}
}

func TestPrimarySite(t *testing.T) {
	_, s := newTestStore(6, Config{Replicas: 3})
	s.Put("b", "k", 1, nil)
	site, ok := s.PrimarySite("b", "k")
	if !ok || site == "" {
		t.Fatalf("PrimarySite = %q,%v", site, ok)
	}
	if _, ok := s.PrimarySite("b", "missing"); ok {
		t.Fatal("PrimarySite of missing object reported ok")
	}
}

func TestPutWithNoOSDs(t *testing.T) {
	c := sim.NewClock()
	s := NewStore(c, nil, Config{})
	if _, err := s.Put("b", "k", 1, nil); err != ErrNoOSDs {
		t.Fatalf("err = %v, want ErrNoOSDs", err)
	}
}

func TestMountReadWrite(t *testing.T) {
	_, s := newTestStore(4, Config{Replicas: 2})
	m := s.MountBucket("connect")
	if err := m.WriteFile("results/seg0.bin", []byte("mask")); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile("/results/seg0.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "mask" {
		t.Fatalf("data = %q", data)
	}
}

func TestPropertyReplicaCountInvariant(t *testing.T) {
	// For any OSD count >= replicas and any key set, every object gets
	// exactly `replicas` distinct up replicas.
	f := func(seed uint64, osdRaw, keysRaw uint8) bool {
		osds := int(osdRaw%12) + 3
		keys := int(keysRaw%50) + 1
		c := sim.NewClock()
		s := NewStore(c, nil, Config{Replicas: 3, PGs: 64})
		for i := 0; i < osds; i++ {
			s.AddOSD(fmt.Sprintf("o%d", i), "s", 1e12, 1)
		}
		rng := sim.NewRNG(seed)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(1000))
			s.Put("b", k, 1, nil)
			locs := s.Locations("b", k)
			if len(locs) != 3 {
				return false
			}
			seen := map[string]bool{}
			for _, id := range locs {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUsageConservation(t *testing.T) {
	// TotalUsed always equals sum(object size x replica count).
	f := func(sizes []uint16) bool {
		c := sim.NewClock()
		s := NewStore(c, nil, Config{Replicas: 2, PGs: 32})
		for i := 0; i < 5; i++ {
			s.AddOSD(fmt.Sprintf("o%d", i), "s", 1e12, 1)
		}
		want := 0.0
		for i, sz := range sizes {
			s.Put("b", fmt.Sprintf("k%d", i), float64(sz), nil)
			want += float64(sz) * 2
		}
		return math.Abs(s.TotalUsed()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaPlacement(t *testing.T) {
	clk, s := newTestStore(6, Config{Replicas: 3})
	if got := s.ReplicaPlacement("b", "missing"); got != nil {
		t.Fatalf("placement of missing object = %v, want nil", got)
	}
	if _, err := s.Put("b", "vol", 1e6, nil); err != nil {
		t.Fatal(err)
	}
	reps := s.ReplicaPlacement("b", "vol")
	if len(reps) != 3 {
		t.Fatalf("replicas = %d, want 3", len(reps))
	}
	locs := s.Locations("b", "vol")
	for i, r := range reps {
		if r.OSD != locs[i] {
			t.Fatalf("replica %d OSD = %s, want %s", i, r.OSD, locs[i])
		}
		if !r.Up {
			t.Fatalf("replica %d on %s reported down on a healthy store", i, r.OSD)
		}
		if want := s.osds[r.OSD].Site; r.Site != want {
			t.Fatalf("replica %d site = %s, want %s", i, r.Site, want)
		}
	}
	// Failing an OSD remaps immediately: the placement must only name
	// surviving daemons afterwards (the requeue path depends on this).
	if _, err := s.FailOSD(reps[0].OSD); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.ReplicaPlacement("b", "vol") {
		if r.OSD == reps[0].OSD {
			t.Fatalf("placement still names failed OSD %s", r.OSD)
		}
		if !r.Up {
			t.Fatalf("remapped placement names down OSD %s", r.OSD)
		}
	}
	clk.Run()
}

// Stat reports whether the object exists and its size.
func (s *Store) Stat(bucket, key string) (float64, bool) {
	obj, ok := s.objects[objKey(bucket, key)]
	if !ok {
		return 0, false
	}
	return obj.Size, true
}

// TotalUsed returns raw bytes consumed across up OSDs.
func (s *Store) TotalUsed() float64 {
	sum := 0.0
	for _, o := range s.osds {
		if o.Up {
			sum += o.used
		}
	}
	return sum
}

// Stat returns the file's size and whether it exists.
func (m *Mount) Stat(path string) (float64, bool) {
	return m.store.Stat(m.bucket, cleanPath(path))
}

// formattedPlacement is the oracle for placePG: the placement as first
// written, which formatted and hashed each (PG, OSD) pair's whole
// "pg-<pg>|<osd>" key, with that hash copied here as it was.
func formattedPlacement(s *Store) [][]string {
	hash := func(s string) uint64 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return h
	}
	out := make([][]string, s.cfg.PGs)
	for pg := range out {
		type cand struct {
			id    string
			score float64
		}
		var cands []cand
		for _, id := range s.osdIDs {
			o := s.osds[id]
			if !o.Up {
				continue
			}
			h := hash(fmt.Sprintf("pg-%d", pg) + "|" + id)
			u := (float64(h>>11) + 1) / (1 << 53)
			cands = append(cands, cand{id, math.Log(u) / o.Weight})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].id < cands[j].id
		})
		for i := 0; i < s.cfg.Replicas && i < len(cands); i++ {
			out[pg] = append(out[pg], cands[i].id)
		}
	}
	return out
}

// TestPlacementMatchesFormattedKeys: hashing each PG's prefix once and
// continuing its state with each OSD id draws the bits the formatted keys
// drew, so every PG keeps its replica list, in order, on a built store, a
// weighted one, and after a fail and a recover.
func TestPlacementMatchesFormattedKeys(t *testing.T) {
	for _, osds := range []int{3, 13} {
		_, s := newTestStore(osds, Config{Replicas: 3})
		check := func(when string) {
			t.Helper()
			want := formattedPlacement(s)
			for pg := range want {
				if !slices.Equal(s.pgMap[pg], want[pg]) {
					t.Fatalf("%d OSDs, %s: pg %d on %v, want %v", osds, when, pg, s.pgMap[pg], want[pg])
				}
			}
		}
		check("built")
		s.AddOSD("osd-heavy", "site-0", 1e12, 2.5)
		check("with a weighted OSD")
		if _, err := s.FailOSD("osd-01"); err != nil {
			t.Fatal(err)
		}
		check("after a fail")
		if err := s.RecoverOSD("osd-01"); err != nil {
			t.Fatal(err)
		}
		check("after a recover")
	}
}

// BenchmarkStoreBuild builds a store OSD by OSD, each AddOSD placing all 128
// PGs again: three OSDs is dataset.NewLocal's store, thirteen a larger pool.
func BenchmarkStoreBuild(b *testing.B) {
	for _, osds := range []int{3, 13} {
		b.Run(fmt.Sprintf("osds=%d", osds), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				newTestStore(osds, Config{Replicas: 3})
			}
		})
	}
}
