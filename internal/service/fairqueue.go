package service

import (
	"container/heap"
	"sync"
)

// fairQueue is a weighted-fair queue of pending job ids grouped by tenant
// (the authenticated submit identity). Jobs within a tenant dequeue FIFO;
// across tenants, Pop interleaves by start-time fair queuing: each tenant
// carries a virtual finish time advanced by 1/weight per dequeued job, and
// Pop always serves the tenant furthest behind. A tenant that floods the
// queue therefore cannot starve a light tenant — the light tenant's few
// jobs dequeue at their fair share no matter how deep the flood is.
//
// Every worker pool carries its own fairQueue (one on a single-node runner,
// one per node on a cluster runner), so fairness holds per node queue too.
type fairQueue struct {
	mu sync.Mutex
	// weight resolves a tenant's share (>= 1); nil means every tenant
	// weighs 1.
	weight func(tenant string) int

	tenants map[string]*tenantQ
	active  tenantHeap
	vtime   float64 // global virtual time = vt of the last dequeued tenant
	size    int
}

// tenantQ is one tenant's FIFO backlog plus its fair-queuing state.
type tenantQ struct {
	name string
	ids  []string
	head int     // index of the FIFO front inside ids
	vt   float64 // virtual finish time of the tenant's next dequeue
	hidx int     // position in the active heap; -1 when idle
}

func newFairQueue(weight func(string) int) *fairQueue {
	return &fairQueue{weight: weight, tenants: make(map[string]*tenantQ)}
}

func (f *fairQueue) weightOf(tenant string) float64 {
	if f.weight == nil {
		return 1
	}
	if w := f.weight(tenant); w > 0 {
		return float64(w)
	}
	return 1
}

// Push enqueues id under tenant.
func (f *fairQueue) Push(tenant, id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := f.tenants[tenant]
	if q == nil {
		q = &tenantQ{name: tenant, hidx: -1}
		f.tenants[tenant] = q
	}
	q.ids = append(q.ids, id)
	f.size++
	if q.hidx < 0 {
		// (Re)activating: the tenant resumes no earlier than the global
		// virtual time, so an idle period cannot bank credit for a burst.
		if q.vt < f.vtime {
			q.vt = f.vtime
		}
		heap.Push(&f.active, q)
	}
}

// Pop dequeues the next id by weighted fairness. ok is false when empty.
func (f *fairQueue) Pop() (id string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.active) == 0 {
		return "", false
	}
	q := f.active[0]
	id = q.ids[q.head]
	q.ids[q.head] = "" // release the string for GC
	q.head++
	f.size--
	f.vtime = q.vt
	q.vt += 1 / f.weightOf(q.name)
	if q.head == len(q.ids) {
		q.ids = q.ids[:0]
		q.head = 0
		heap.Pop(&f.active)
	} else {
		// Compact the drained prefix once it dominates the backing array so
		// a long-lived tenant's slice stays proportional to its backlog.
		if q.head > 64 && q.head > len(q.ids)/2 {
			q.ids = append(q.ids[:0], q.ids[q.head:]...)
			q.head = 0
		}
		heap.Fix(&f.active, 0)
	}
	return id, true
}

// PopAll drains every pending id (Close and node-drain sweeps).
func (f *fairQueue) PopAll() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, f.size)
	for _, q := range f.tenants {
		out = append(out, q.ids[q.head:]...)
		q.ids = q.ids[:0]
		q.head = 0
		if q.hidx >= 0 {
			q.hidx = -1
		}
	}
	f.active = f.active[:0]
	f.size = 0
	return out
}

// Len returns the total number of queued ids.
func (f *fairQueue) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// tenantHeap orders active tenants by virtual finish time (ties broken by
// name so dequeue order is deterministic).
type tenantHeap []*tenantQ

func (h tenantHeap) Len() int { return len(h) }
func (h tenantHeap) Less(i, j int) bool {
	if h[i].vt != h[j].vt {
		return h[i].vt < h[j].vt
	}
	return h[i].name < h[j].name
}
func (h tenantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}
func (h *tenantHeap) Push(x any) {
	q := x.(*tenantQ)
	q.hidx = len(*h)
	*h = append(*h, q)
}
func (h *tenantHeap) Pop() any {
	old := *h
	q := old[len(old)-1]
	old[len(old)-1] = nil
	q.hidx = -1
	*h = old[:len(old)-1]
	return q
}
