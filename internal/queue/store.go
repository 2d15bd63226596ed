// Package queue is the simulated Redis of CHASE-CI's download step: "the
// Redis queue holds a list of files that contain urls to download ... each
// pod pops a message off the queue". Store is an in-memory list/key-value
// engine: the virtual-time download workers of core's Figure 3 push and pop
// its lists, and service.Runner persists its job records into it.
package queue

import (
	"sort"
	"strconv"
	"sync"
)

// Store is an in-memory Redis-like data store: string keys and list keys.
// It is safe for concurrent use (a service.Runner's worker goroutines write
// job records into one store at once); simulation code calls it
// synchronously.
type Store struct {
	mu    sync.Mutex
	kv    map[string]string
	lists map[string][]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{kv: make(map[string]string), lists: make(map[string][]string)}
}

// Set stores a string value.
func (s *Store) Set(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kv[key] = value
}

// Get fetches a string value; ok is false for missing keys.
func (s *Store) Get(key string) (value string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	value, ok = s.kv[key]
	return value, ok
}

// Del removes string and list entries for key, reporting how many existed.
func (s *Store) Del(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	if _, ok := s.kv[key]; ok {
		delete(s.kv, key)
		n++
	}
	if _, ok := s.lists[key]; ok {
		delete(s.lists, key)
		n++
	}
	return n
}

// Incr atomically adds delta to an integer-valued key, returning the result.
// A missing key counts from zero.
func (s *Store) Incr(key string, delta int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := parseInt(s.kv[key])
	cur += delta
	s.kv[key] = strconv.FormatInt(cur, 10)
	return cur
}

func parseInt(v string) int64 {
	var n int64
	neg := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n
}

// LPush prepends values to the list at key, returning the new length.
func (s *Store) LPush(key string, values ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[key]
	for _, v := range values {
		l = append([]string{v}, l...)
	}
	s.lists[key] = l
	return len(l)
}

// RPop removes and returns the last element; ok is false if empty. LPush +
// RPop together give the FIFO the download workers consume.
func (s *Store) RPop(key string) (value string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lists[key]
	if len(l) == 0 {
		return "", false
	}
	value = l[len(l)-1]
	s.lists[key] = l[:len(l)-1]
	if len(s.lists[key]) == 0 {
		delete(s.lists, key)
	}
	return value, true
}

// Keys returns every key (string and list) in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for k := range s.kv {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range s.lists {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
