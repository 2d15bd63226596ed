package service

import (
	"cmp"
	"slices"
	"sync"
)

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

// pruneCand is a terminal job pruneIfNeeded may evict, with its submit
// sequence number, which orders eviction oldest first.
type pruneCand struct {
	id  string
	seq int64
}

// evictFIFO is the bounded queue of job ids evicted from memory whose
// store records remain readable. Pop-front uses a head index with periodic
// compaction, so the backing array stays proportional to the live tail
// instead of growing for the life of the process.
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

func (f *evictFIFO) len() int { return len(f.buf) - f.head }

// pruneIfNeeded evicts the oldest terminal jobs once the in-memory index
// exceeds the retention cap (with 10% amortization slack), and deletes the
// store records of jobs that age past the store's larger tail. Global
// across shards: candidates are ordered by submit sequence so eviction
// age-order matches the old single-map design. Callers must hold no shard
// lock.
func (r *Runner) pruneIfNeeded() {
	retain := int(r.retain.Load())
	if int(r.njobs.Load()) <= retain+retain/10+1 {
		return
	}
	// Single-flight: concurrent terminal transitions all spotting the
	// overshoot elect one sweeper; the rest skip (the next transition
	// re-checks).
	if !r.pruneMu.TryLock() {
		return
	}
	defer r.pruneMu.Unlock()

	// The candidate buffer is the runner's, reused from sweep to sweep
	// under pruneMu; it is cleared on the way out so it keeps no evicted
	// id alive.
	cands := r.pruneCands[:0]
	defer func() {
		clear(cands)
		r.pruneCands = cands[:0]
	}()
	total := 0
	r.eachJob(func(j *job) {
		total++
		if stateNames[j.state.Load()].Terminal() {
			cands = append(cands, pruneCand{j.id, j.seq})
		}
	})
	excess := total - retain
	if excess <= 0 {
		return
	}
	slices.SortFunc(cands, func(a, b pruneCand) int { return cmp.Compare(a.seq, b.seq) })
	if excess > len(cands) {
		excess = len(cands)
	}
	for _, c := range cands[:excess] {
		sh := r.shardFor(c.id)
		sh.mu.Lock()
		j := sh.jobs[c.id]
		// Re-verify under the lock: a Lookup cannot race a half-removed
		// record, and a job resurrected by id reuse (impossible today, ids
		// are store-sequenced) would be left alone.
		if j != nil && stateNames[j.state.Load()].Terminal() {
			delete(sh.jobs, c.id)
			r.njobs.Add(-1)
			sh.mu.Unlock()
			r.evictMu.Lock()
			r.evicted.push(c.id)
			r.evictMu.Unlock()
		} else {
			sh.mu.Unlock()
		}
	}
	// Age the eviction tail: ids beyond the store retention window lose
	// their store records too, bounding total footprint.
	storeCap := storeRetainFactor * retain
	r.evictMu.Lock()
	var expired []string
	for r.evicted.len() > storeCap {
		id, ok := r.evicted.pop()
		if !ok {
			break
		}
		expired = append(expired, id)
	}
	r.evictMu.Unlock()
	for _, id := range expired {
		r.store.Del(JobKey(id))
		r.store.Del(ResultKey(id))
	}
}
