package service

import (
	"container/list"
	"sync"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
)

// The runner's inference networks. The network a segment or pipeline job
// floods with is a pure function of content the server already holds — a
// checkpoint's content address, or a canonical config and the seed its
// weights are drawn from — and an ffn network no trainer owns is immutable,
// so one network serves every job naming the same weights, concurrently.
// The training handlers build their own, because they step them; they and
// this file are the package's only callers of ffn.NewNetwork,
// ffn.DecodeCheckpoint and ffn.DecodeCheckpointNet (a CI step holds that).
//
// The cache widens no access. Every ref a job names is checked for
// existence, kind and visibility, and pinned, at submit (Runner.checkRef),
// before a handler can reach the cache: a cached network only ever serves a
// job whose submitter could have loaded the checkpoint itself.

// netCacheBytes bounds what the cache holds: each network's weights
// (ffn.Network.WeightBytes, the parameter vector) and netEntryBytes for the
// rest of each entry — about 500 networks of the default geometry. A network
// larger than the bound is used uncached.
const netCacheBytes = 16 << 20

// netEntryBytes is what one cached network occupies besides its weights: the
// Network and its tensor headers, the entry, its list element and map slot,
// and the allocator's rounding of the parameter vector to its size class.
// Measured live heap per entry: 1.6 KB for a one-feature, one-module network
// (452 bytes of weights), 33.3 KB for the default one (28.9 KB of weights).
const netEntryBytes = 4 << 10

// netKey names one set of inference weights by content: a checkpoint's
// content address (ref, with cfg and seed zero), or a canonical config
// (netConfig) and the seed its weights are drawn from.
type netKey struct {
	ref  string
	cfg  ffn.Config
	seed uint64
}

// netCache is a byte-bounded LRU of shared inference networks.
type netCache struct {
	capacity int

	mu    sync.Mutex
	bytes int
	index map[netKey]*list.Element
	lru   list.List // front = most recent; values are *netEntry
}

type netEntry struct {
	key   netKey
	net   *ffn.Network
	bytes int
}

func newNetCache(capacity int) *netCache {
	return &netCache{capacity: capacity, index: make(map[netKey]*list.Element)}
}

// seeded returns the network whose weights are drawn from seed in cfg's
// geometry; cfg comes from netConfig, so equal specs share one key.
func (c *netCache) seeded(cfg ffn.Config, seed uint64) (*ffn.Network, error) {
	return c.get(netKey{cfg: cfg, seed: seed}, func() (*ffn.Network, error) {
		return ffn.NewNetwork(cfg, seed)
	})
}

// checkpointed returns the network of the checkpoint ref names. A hit
// resolves and decodes nothing; a miss decodes the network alone, none of
// the training state a flood never reads.
func (c *netCache) checkpointed(jc *JobContext, ref string) (*ffn.Network, error) {
	return c.get(netKey{ref: ref}, func() (*ffn.Network, error) {
		blob, err := jc.Datasets().Resolve(ref)
		if err != nil {
			return nil, err
		}
		net, err := ffn.DecodeCheckpointNet(blob.Raw)
		if err != nil {
			return nil, err
		}
		if err := checkCheckpointNet(ref, net); err != nil {
			return nil, err
		}
		return net, nil
	})
}

// get returns the network key names, building and inserting it on a miss.
// No lock is held while build runs: two concurrent misses on one key may
// both build, and the second to finish floods with its own copy of the same
// weights.
func (c *netCache) get(key netKey, build func() (*ffn.Network, error)) (*ffn.Network, error) {
	if net := c.lookup(key); net != nil {
		return net, nil
	}
	net, err := build()
	if err != nil {
		return nil, err
	}
	c.insert(key, net)
	return net, nil
}

func (c *netCache) lookup(key netKey) *ffn.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*netEntry).net
}

// insert caches net under key, evicting least recently used networks past
// the capacity.
func (c *netCache) insert(key netKey, net *ffn.Network) {
	cost := net.WeightBytes() + netEntryBytes
	if cost > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[key]; ok {
		return
	}
	c.index[key] = c.lru.PushFront(&netEntry{key: key, net: net, bytes: cost})
	c.bytes += cost
	for c.bytes > c.capacity {
		ent := c.lru.Remove(c.lru.Back()).(*netEntry)
		delete(c.index, ent.key)
		c.bytes -= ent.bytes
	}
}

// resolveCheckpoint loads the whole checkpoint a ref names: the state a
// train_dist job resumes (resume_from, always a fresh copy: the trainer
// steps it). A segment job's network (net_ref) comes through the cache,
// which decodes the network alone.
func resolveCheckpoint(jc *JobContext, ref string) (*ffn.Checkpoint, error) {
	blob, err := jc.Datasets().Resolve(ref)
	if err != nil {
		return nil, err
	}
	ck, err := ffn.DecodeCheckpoint(blob.Raw)
	if err != nil {
		return nil, err
	}
	if err := checkCheckpointNet(ref, ck.Net); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkCheckpointNet holds the network of the checkpoint ref names to the
// caps a network spelled out in a spec's net is held to: its header arrived
// by upload, so this runs before anything is sized from its geometry.
func checkCheckpointNet(ref string, net *ffn.Network) error {
	nc := netConfigOf(net.Config())
	return nc.Validate("checkpoint " + ref)
}

// netConfigOf is the api form of a network's geometry, for holding a
// network that arrived by ref to the caps a spelled-out net is held to.
func netConfigOf(c ffn.Config) api.NetConfig {
	return api.NetConfig{FOV: c.FOV, Features: c.Features, Modules: c.Modules,
		MoveStep: c.MoveStep, MoveProb: c.MoveProb, SegmentProb: c.SegmentProb}
}
