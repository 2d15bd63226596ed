package service

import "sync"

// The job registry is lock-striped: jobs live in regShards shards keyed by an
// FNV-1a hash of the job id, so status polls, submits, and terminal
// transitions on different jobs never contend on one mutex. A power of two:
// the hash is masked. Not configurable — on two cores the stripes beat a
// single mutex end to end (EXPERIMENTS.md, PR 17) and no caller ever set
// another count.
const regShards = 32

// regShard is one stripe of the registry. closed is flipped per shard by
// Close under the shard mutex, so every Submit either observes it (and
// refuses) or completed its insert beforehand and is visible to Close's
// scan — the same invariant the old single-mutex design kept.
type regShard struct {
	mu     sync.Mutex
	jobs   map[string]*job
	closed bool
}

// shardFor picks the shard owning id. Inline FNV-1a over the id bytes:
// no allocation, so the status-poll fast path stays at 0 allocs/op.
func (r *Runner) shardFor(id string) *regShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &r.shards[h&(regShards-1)]
}

// lookupJob resolves id in its shard.
func (r *Runner) lookupJob(id string) *job {
	sh := r.shardFor(id)
	sh.mu.Lock()
	j := sh.jobs[id]
	sh.mu.Unlock()
	return j
}

// eachJob calls fn on every in-memory job, holding one shard's mutex at a
// time; fn must not take a shard mutex or block.
func (r *Runner) eachJob(fn func(*job)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, j := range sh.jobs {
			fn(j)
		}
		sh.mu.Unlock()
	}
}

// evictFIFO is the queue of terminal job ids in the index, in finish
// order. Pop-front uses a head index with periodic compaction, so the
// backing array stays proportional to the queue instead of growing for the
// life of the process.
type evictFIFO struct {
	buf  []string
	head int
}

func (f *evictFIFO) push(id string) { f.buf = append(f.buf, id) }

func (f *evictFIFO) pop() (string, bool) {
	if f.head >= len(f.buf) {
		return "", false
	}
	id := f.buf[f.head]
	f.buf[f.head] = ""
	f.head++
	if f.head > 64 && f.head > len(f.buf)/2 {
		f.buf = append(f.buf[:0], f.buf[f.head:]...)
		f.head = 0
	}
	return id, true
}

// pruneIfNeeded evicts the earliest-finished terminal jobs while the index
// holds more than the retention cap, so the retain most recently finished
// jobs stay resolvable. A job joins the eviction queue in finish, once it
// has given back everything it held, so an index full of queued and
// running jobs is left as it is. Callers must hold no shard lock.
func (r *Runner) pruneIfNeeded() {
	if r.njobs.Load() <= r.retain.Load() {
		return
	}
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	for r.njobs.Load() > r.retain.Load() {
		id, ok := r.evictOrder.pop()
		if !ok {
			return
		}
		sh := r.shardFor(id)
		sh.mu.Lock()
		delete(sh.jobs, id)
		sh.mu.Unlock()
		r.njobs.Add(-1)
	}
}
