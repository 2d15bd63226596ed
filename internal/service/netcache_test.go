package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/tensor"
)

// cacheState reads the cache's entry count and charged bytes.
func cacheState(c *netCache) (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index), c.bytes
}

// sharedNetJobs are four segment jobs over one volume ref, naming three
// networks four ways: drawn from net_seed 3 with features unset and with
// the default 8 spelled out (one canonical config, so one cached network),
// drawn from net_seed 4, and a trained checkpoint's (net_ref).
func sharedNetJobs(volume, checkpoint string) []*api.JobRequest {
	seg := func(net *api.NetConfig, seed uint64, netRef string) *api.JobRequest {
		spec := &api.SegmentSpec{Source: api.VolumeSource{Ref: volume}, Threshold: 130,
			SeedStride: [3]int{1, 4, 4}, ReturnMask: true, NetRef: netRef, Net: net, NetSeed: seed}
		return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: spec}
	}
	return []*api.JobRequest{
		seg(&api.NetConfig{MoveProb: 0.55}, 3, ""),
		seg(&api.NetConfig{MoveProb: 0.55, Features: 8}, 3, ""),
		seg(&api.NetConfig{MoveProb: 0.55}, 4, ""),
		seg(nil, 0, checkpoint),
	}
}

func maskRef(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil || res.MaskRef == "" || res.Steps == 0 {
		t.Fatalf("segment result %s (%v): want a mask ref", raw, err)
	}
	return res.MaskRef
}

// TestSharedNetworksAloneEqualAlongside: a job's mask does not depend on
// what else floods its network. Each of the four network sources runs
// alone on a fresh runner; then one runner runs sixteen jobs, four of each,
// concurrently on the networks it shares between them. Every mask equals
// the lone run's, and every shared network's weights are still the ones
// its content names.
func TestSharedNetworksAloneEqualAlongside(t *testing.T) {
	d, h, w, field := testIVTField(6)
	trainer, _ := newTestRunner(t, DefaultRegistry(), 1)
	var tres api.TrainDistResult
	if err := json.Unmarshal(runJob(t, trainer, distRequest(1, 4)), &tres); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := trainer.Datasets().GetBytes(tres.CheckpointRef)
	if err != nil {
		t.Fatal(err)
	}
	stock := func(r *Runner) []*api.JobRequest {
		vol, err := r.Datasets().PutVolume(d, h, w, field, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Datasets().Put(checkpoint, ""); err != nil {
			t.Fatal(err)
		}
		return sharedNetJobs(vol.ID, tres.CheckpointRef)
	}

	alone := make([]string, 4)
	for i := range alone {
		r, _ := newTestRunner(t, DefaultRegistry(), 1)
		alone[i] = maskRef(t, runJob(t, r, stock(r)[i]))
	}
	if alone[0] != alone[1] || alone[0] == alone[2] || alone[0] == alone[3] {
		t.Fatalf("lone masks %v: want seed 3 spelled either way to agree, and seed 4 and net_ref to differ", alone)
	}

	r, _ := newTestRunner(t, DefaultRegistry(), 4)
	reqs := stock(r)
	ids := make([]string, 16)
	for i := range ids {
		st, err := r.Submit(reqs[i%len(reqs)], "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if final := waitState(t, r, id, terminal); final.State != api.StateSucceeded {
			t.Fatalf("job %d: %s (%s)", i, final.State, final.Error)
		}
		raw, _, _ := r.Result(id)
		if got := maskRef(t, raw); got != alone[i%len(alone)] {
			t.Fatalf("job %d floods to %s alongside fifteen others, %s alone", i, got, alone[i%len(alone)])
		}
	}

	if n, _ := cacheState(r.nets); n != 3 {
		t.Fatalf("the cache holds %d networks, want 3 (seed 3 either way, seed 4, the checkpoint's)", n)
	}
	blob, err := dataset.Decode(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ffn.DecodeCheckpoint(blob.Raw)
	if err != nil {
		t.Fatal(err)
	}
	for el := r.nets.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*netEntry)
		want := ck.Net
		if ent.key.ref == "" {
			if want, err = ffn.NewNetwork(ent.key.cfg, ent.key.seed); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(weights(ent.net), weights(want)) {
			t.Fatalf("the shared network %+v was written by the jobs that flooded it", ent.key)
		}
	}
	assertNoLeaks(t, r)
}

// TestNetCacheEvictsLeastRecentlyUsed: past its capacity the cache drops the
// network used longest ago, a hit returns the very network the miss built,
// and a network larger than the whole cache is built and used but not kept.
func TestNetCacheEvictsLeastRecentlyUsed(t *testing.T) {
	cfg := ffn.DefaultConfig()
	probe, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost := probe.WeightBytes() + netEntryBytes
	c := newNetCache(3 * cost)
	get := func(c *netCache, seed uint64) *ffn.Network {
		t.Helper()
		net, err := c.seeded(cfg, seed)
		if err != nil || net == nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return net
	}
	first := get(c, 1)
	get(c, 2)
	get(c, 3)
	if get(c, 1) != first {
		t.Fatal("a hit built a new network")
	}
	get(c, 4) // past capacity: seed 2 is the least recently used
	if n, b := cacheState(c); n != 3 || b != 3*cost {
		t.Fatalf("cache holds %d networks in %d bytes, want 3 in %d", n, b, 3*cost)
	}
	for seed, want := range map[uint64]bool{1: true, 2: false, 3: true, 4: true} {
		if _, ok := c.index[netKey{cfg: cfg, seed: seed}]; ok != want {
			t.Fatalf("seed %d cached = %v, want %v", seed, ok, want)
		}
	}

	small := newNetCache(cost - 1)
	get(small, 1)
	if n, b := cacheState(small); n != 0 || b != 0 {
		t.Fatalf("a network over the whole bound was cached (%d networks, %d bytes)", n, b)
	}
}

// TestNetCacheIsBounded: a thousand segment jobs, each on a network no other
// job names, keep the cache inside its byte bound after every job, and the
// live heap inside what the cache charged plus slack — so the charge is an
// honest upper bound, and the heap stays inside the cache's bound.
func TestNetCacheIsBounded(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 2)
	r.retain.Store(64)
	job := func(seed uint64) *api.JobRequest {
		req := tinySegmentRequest()
		req.Segment.Net, req.Segment.NetSeed = &api.NetConfig{Features: 1, Modules: 1}, seed
		return req
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runJob(t, r, job(0))
	before := heap()
	const jobs = 1000
	for i := 1; i <= jobs; i++ {
		runJob(t, r, job(uint64(i)))
		if _, b := cacheState(r.nets); b > netCacheBytes {
			t.Fatalf("after %d jobs the cache holds %d bytes, over its %d bound", i, b, netCacheBytes)
		}
	}
	growth := int64(heap()) - int64(before)
	n, b := cacheState(r.nets)
	t.Logf("%d networks cached in %d charged bytes; live heap %+d KB over %d jobs", n, b, growth>>10, jobs)
	const slack = 1 << 20
	if growth > int64(b)+slack {
		t.Fatalf("live heap grew %d KB, over the %d KB the cache charged (bound %d KB) plus %d KB", growth>>10, b>>10, netCacheBytes>>10, slack>>10)
	}
}

// TestNetRefCacheWidensNoAccess: a checkpoint's network in the cache serves
// nobody the checkpoint does not. A tenant who cannot see alice's
// checkpoint is refused the same way before and after her job cached its
// network, and once alice drops the checkpoint her own submit is refused
// the same way too.
func TestNetRefCacheWidensNoAccess(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 2)
	const alice, bob = "alice@ucsd.edu", "bob@sdsc.edu"
	run := func(req *api.JobRequest) json.RawMessage {
		t.Helper()
		st, err := r.Submit(req, alice)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitState(t, r, st.ID, terminal); final.State != api.StateSucceeded {
			t.Fatalf("%s job: %s (%s)", req.Kind, final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		return raw
	}
	var tres api.TrainDistResult
	if err := json.Unmarshal(run(distRequest(1, 2)), &tres); err != nil {
		t.Fatal(err)
	}
	seg := netRefSegment(tres.CheckpointRef)
	_, cold := r.Submit(seg, bob)
	if cold == nil {
		t.Fatal("bob submitted over alice's private checkpoint")
	}

	maskRef(t, run(seg))
	if r.nets.lookup(netKey{ref: tres.CheckpointRef}) == nil {
		t.Fatal("alice's job did not cache the checkpoint's network")
	}
	if _, warm := r.Submit(seg, bob); warm == nil || warm.Error() != cold.Error() {
		t.Fatalf("bob with the network cached: %v, want the refusal he got before: %v", warm, cold)
	}

	if !r.Datasets().Drop(tres.CheckpointRef, alice) {
		t.Fatal("alice could not drop her checkpoint")
	}
	if _, dropped := r.Submit(seg, alice); dropped == nil || dropped.Error() != cold.Error() {
		t.Fatalf("alice after dropping the checkpoint: %v, want %v", dropped, cold)
	}
	assertNoLeaks(t, r)
}

// TestNetRefMissDecodesOnlyTheNetwork: a net_ref cache miss decodes the
// checkpoint's network and none of the training state a flood never reads
// — the loss history and the optimizer's velocity, one float per
// parameter. A miss on a default-geometry checkpoint with a 1,000-round
// loss history allocates under its weights plus 16 KB; the full decode
// resume_from makes allocates the velocity and the losses on top.
func TestNetRefMissDecodesOnlyTheNetwork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are meaningless under -race")
	}
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	net, err := ffn.NewNetwork(ffn.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := &ffn.Checkpoint{Net: net, Opt: tensor.NewSGD(0.03, 0.9), BatchPerRound: 4, Round: 1000, Losses: make([]float64, 1000)}
	enc, err := dataset.EncodeCheckpoint(ck.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.Datasets().Put(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	jc := &JobContext{ctx: context.Background(), job: &job{req: &api.JobRequest{}}, runner: r, datasets: r.Datasets()}
	allocated := func(fn func() error) uint64 {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fn()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	var got *ffn.Network
	miss := func() (err error) {
		got, err = newNetCache(netCacheBytes).checkpointed(jc, info.ID)
		return err
	}
	full := func() error {
		_, err := resolveCheckpoint(jc, info.ID)
		return err
	}
	miss() // the blob is resolved and cached once
	if !bytes.Equal(weights(got), weights(net)) {
		t.Fatal("the cached network is not the checkpoint's")
	}
	missBytes, fullBytes := allocated(miss), allocated(full)
	t.Logf("a miss allocates %d bytes, the full decode %d; the weights are %d", missBytes, fullBytes, net.WeightBytes())
	if bound := uint64(net.WeightBytes() + 16<<10); missBytes > bound {
		t.Fatalf("a net_ref miss allocates %d bytes, want <= %d", missBytes, bound)
	}
	if velocity := uint64(net.WeightBytes()); fullBytes < missBytes+velocity {
		t.Fatalf("the full decode allocates %d bytes, want the miss's %d plus the %d-byte velocity", fullBytes, missBytes, velocity)
	}
}

// weights serializes a network's configuration and weights, as a
// checkpoint holding it with a blank optimizer.
func weights(n *ffn.Network) []byte {
	return (&ffn.Checkpoint{Net: n, Opt: tensor.NewSGD(0, 0)}).EncodeBytes()
}
