package queue

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreSetGetDel(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if n := s.Del("k"); n != 1 {
		t.Fatalf("Del = %d, want 1", n)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survives Del")
	}
	if n := s.Del("k"); n != 0 {
		t.Fatalf("Del missing = %d, want 0", n)
	}
}

func TestStoreFIFOOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.LPush("q", fmt.Sprintf("m%d", i))
	}
	if n := len(s.lists["q"]); n != 5 {
		t.Fatalf("LLen = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		v, ok := s.RPop("q")
		if !ok || v != fmt.Sprintf("m%d", i) {
			t.Fatalf("pop %d = %q,%v", i, v, ok)
		}
	}
	if _, ok := s.RPop("q"); ok {
		t.Fatal("pop from empty list succeeded")
	}
	if n := len(s.lists["q"]); n != 0 {
		t.Fatalf("LLen of drained list = %d, want 0", n)
	}
}

func TestStoreIncr(t *testing.T) {
	s := NewStore()
	if got := s.Incr("n", 5); got != 5 {
		t.Fatalf("Incr = %d, want 5", got)
	}
	if got := s.Incr("n", -2); got != 3 {
		t.Fatalf("Incr = %d, want 3", got)
	}
	if v, _ := s.Get("n"); v != "3" {
		t.Fatalf("Get after Incr = %q, want 3", v)
	}
}

func TestStoreKeys(t *testing.T) {
	s := NewStore()
	s.Set("b", "1")
	s.LPush("a", "x")
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestStoreConcurrentPops(t *testing.T) {
	// Many concurrent consumers must drain the queue exactly once per item,
	// the guarantee the paper's 10 download workers rely on.
	s := NewStore()
	const items = 1000
	for i := 0; i < items; i++ {
		s.LPush("q", fmt.Sprintf("file-%d", i))
	}
	var mu sync.Mutex
	got := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := s.RPop("q")
				if !ok {
					return
				}
				mu.Lock()
				got[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != items {
		t.Fatalf("drained %d distinct items, want %d", len(got), items)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("item %s popped %d times", k, n)
		}
	}
}

func TestPropertyListOrderPreserved(t *testing.T) {
	// LPush then RPop replays any sequence in order (per-producer FIFO).
	f := func(vals []uint16) bool {
		s := NewStore()
		for _, v := range vals {
			s.LPush("q", fmt.Sprint(v))
		}
		for _, v := range vals {
			got, ok := s.RPop("q")
			if !ok || got != fmt.Sprint(v) {
				return false
			}
		}
		_, ok := s.RPop("q")
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIncrMatchesSum(t *testing.T) {
	f := func(deltas []int16) bool {
		s := NewStore()
		var want int64
		var got int64
		for _, d := range deltas {
			got = s.Incr("n", int64(d))
			want += int64(d)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreIncrReadsStoredValue(t *testing.T) {
	// Incr counts on from a stored decimal; anything else counts from zero.
	cases := []struct {
		name, stored string
		set          bool
		want         int64
	}{
		{"missing key", "", false, 1},
		{"decimal", "41", true, 42},
		{"negative", "-7", true, -6},
		{"empty value", "", true, 1},
		{"lone minus", "-", true, 1},
		{"not a number", "abc", true, 1},
		{"trailing junk", "12x", true, 1},
		{"inner minus", "1-2", true, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore()
			if c.set {
				s.Set("n", c.stored)
			}
			if got := s.Incr("n", 1); got != c.want {
				t.Fatalf("Incr after %q = %d, want %d", c.stored, got, c.want)
			}
			if v, _ := s.Get("n"); v != fmt.Sprint(c.want) {
				t.Fatalf("stored value = %q, want %d", v, c.want)
			}
		})
	}
}

func TestStoreConcurrentIncrIssuesDistinctValues(t *testing.T) {
	// The Runner's job-id counter: concurrent workers never draw one value twice.
	s := NewStore()
	const workers, each = 8, 100
	got := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got[w] = append(got[w], s.Incr("seq", 1))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int64]bool)
	for _, vs := range got {
		for _, v := range vs {
			if v < 1 || v > workers*each || seen[v] {
				t.Fatalf("value %d drawn twice or out of range", v)
			}
			seen[v] = true
		}
	}
	if v, _ := s.Get("seq"); v != fmt.Sprint(workers*each) {
		t.Fatalf("final counter = %q, want %d", v, workers*each)
	}
}

func TestStoreLPushManyValues(t *testing.T) {
	s := NewStore()
	if n := s.LPush("q", "a", "b", "c"); n != 3 {
		t.Fatalf("LPush = %d, want 3", n)
	}
	if n := s.LPush("q", "d"); n != 4 {
		t.Fatalf("LPush = %d, want 4", n)
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if v, ok := s.RPop("q"); !ok || v != want {
			t.Fatalf("RPop = %q,%v; want %q", v, ok, want)
		}
	}
}

func TestStoreListsAreIndependent(t *testing.T) {
	s := NewStore()
	s.LPush("a", "a1", "a2")
	s.LPush("b", "b1")
	if v, _ := s.RPop("b"); v != "b1" {
		t.Fatalf("RPop(b) = %q", v)
	}
	if n := len(s.lists["a"]); n != 2 {
		t.Fatalf("LLen(a) = %d after popping b, want 2", n)
	}
	if _, ok := s.RPop("b"); ok {
		t.Fatal("b still has an element")
	}
}

func TestStoreDelRemovesBothKinds(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	s.LPush("k", "x")
	if n := s.Del("k"); n != 2 {
		t.Fatalf("Del = %d, want 2 (string and list)", n)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("string survives Del")
	}
	if n := len(s.lists["k"]); n != 0 {
		t.Fatalf("LLen after Del = %d", n)
	}
	if keys := s.Keys(); len(keys) != 0 {
		t.Fatalf("Keys after Del = %v", keys)
	}
}

func TestStoreKeysOnceAndWithoutDrainedLists(t *testing.T) {
	s := NewStore()
	s.Set("shared", "v")
	s.LPush("shared", "x")
	s.LPush("drained", "y")
	s.RPop("drained")
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "shared" {
		t.Fatalf("Keys = %v, want [shared]", keys)
	}
}

func TestStoreEmptyStringIsAValue(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get of a missing key reported ok")
	}
	s.Set("k", "")
	if v, ok := s.Get("k"); !ok || v != "" {
		t.Fatalf("Get = %q,%v; want \"\",true", v, ok)
	}
	s.Set("k", "new")
	if v, _ := s.Get("k"); v != "new" {
		t.Fatalf("Get after overwrite = %q", v)
	}
}
