package queue

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreSetGet(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
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
