// Package objstore is the simulated Rook/Ceph layer of CHASE-CI: a
// replicated object store spread across OSDs (storage daemons) hosted on
// cluster nodes at PRP sites. Placement uses placement groups mapped to OSDs
// with a straw2-style weighted rendezvous hash, giving the two properties the
// paper relies on: data is dynamically distributed between storage nodes, and
// the loss of an OSD degrades only the placement groups it held, which the
// store heals by re-replicating in virtual time ("Ceph ... replicates and
// dynamically distributes data between storage nodes while monitoring their
// health").
package objstore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

// Errors returned by store operations.
var (
	ErrNotFound     = errors.New("objstore: object not found")
	ErrNoOSDs       = errors.New("objstore: not enough OSDs up for requested replication")
	ErrOSDUnknown   = errors.New("objstore: unknown OSD")
	ErrBucketExists = errors.New("objstore: bucket already exists")
	// ErrAllReplicasDown is a *transient* read failure: the object exists
	// but every replica sits on a down OSD. Unlike ErrNotFound, a retry
	// after OSD recovery can succeed, so callers may back off and retry.
	ErrAllReplicasDown = errors.New("objstore: all replicas down")
)

// OSD is one object storage daemon (a disk on a FIONA node).
type OSD struct {
	ID       string
	Site     string  // netsim site hosting the daemon
	Capacity float64 // bytes
	Weight   float64 // CRUSH weight; proportional share of data
	Up       bool

	used float64
}

// Used returns bytes currently stored on the OSD (including replicas).
func (o *OSD) Used() float64 { return o.used }

// Object is stored content. Size is authoritative for capacity accounting;
// Data optionally carries real bytes for the small volumes the real-compute
// paths (FFN, CONNECT) operate on.
type Object struct {
	Bucket string
	Key    string
	Size   float64
	Data   []byte

	pg int
}

// Health summarizes placement-group state, mirroring `ceph status`.
type Health struct {
	PGsTotal      int
	PGsActive     int // full replica count on up OSDs
	PGsDegraded   int // at least one replica on a down OSD
	PGsUndersized int // fewer mapped OSDs than the replication factor
	BytesStored   float64
	BytesRaw      float64 // stored x replication
}

// OK reports whether every PG has its full complement of replicas.
func (h Health) OK() bool { return h.PGsDegraded == 0 && h.PGsUndersized == 0 }

// Config holds store-wide parameters.
type Config struct {
	Replicas     int     // replica count per object (Ceph default 3)
	PGs          int     // number of placement groups
	RecoveryRate float64 // bytes/sec per OSD devoted to re-replication
}

func (c *Config) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.PGs <= 0 {
		c.PGs = 128
	}
	if c.RecoveryRate <= 0 {
		c.RecoveryRate = 100e6 // 100 MB/s, SSD-class recovery
	}
}

// Store is the cluster-wide object store.
type Store struct {
	clock *sim.Clock
	cfg   Config

	osds    map[string]*OSD
	osdIDs  []string // deterministic iteration
	objects map[string]*Object
	buckets map[string]map[string]*Object

	pgMap [][]string // pg -> replica OSD IDs

	recovering  bool
	healthGauge *metrics.Gauge
	storedGauge *metrics.Gauge
}

// NewStore creates an empty store on the given clock. reg may be nil.
func NewStore(clock *sim.Clock, reg *metrics.Registry, cfg Config) *Store {
	cfg.defaults()
	s := &Store{
		clock:   clock,
		cfg:     cfg,
		osds:    make(map[string]*OSD),
		objects: make(map[string]*Object),
		buckets: make(map[string]map[string]*Object),
		pgMap:   make([][]string, cfg.PGs),
	}
	if reg != nil {
		s.healthGauge = reg.Gauge("ceph_pgs_degraded", nil)
		s.storedGauge = reg.Gauge("ceph_bytes_stored", nil)
	}
	return s
}

// Replicas returns the configured replication factor.
func (s *Store) Replicas() int { return s.cfg.Replicas }

// AddOSD registers a storage daemon and rebalances placement groups.
func (s *Store) AddOSD(id, site string, capacity, weight float64) *OSD {
	if _, dup := s.osds[id]; dup {
		panic("objstore: duplicate OSD " + id)
	}
	if weight <= 0 {
		weight = 1
	}
	o := &OSD{ID: id, Site: site, Capacity: capacity, Weight: weight, Up: true}
	s.osds[id] = o
	s.osdIDs = append(s.osdIDs, id)
	sort.Strings(s.osdIDs)
	s.remap()
	return o
}

// OSDs returns the daemons in ID order.
func (s *Store) OSDs() []*OSD {
	out := make([]*OSD, 0, len(s.osdIDs))
	for _, id := range s.osdIDs {
		out = append(out, s.osds[id])
	}
	return out
}

// straw2 returns the weighted rendezvous score of the draw h, the hash of
// (input, osd): each OSD draws an exponential "straw" scaled by its weight;
// the highest straws win. The key property is stability: changing the OSD
// set only remaps items whose winning straw belonged to a removed OSD.
func straw2(h uint64, weight float64) float64 {
	// Map hash to (0,1], then to an exponential variate scaled by weight.
	u := (float64(h>>11) + 1) / (1 << 53)
	return math.Log(u) / weight // negative; closer to 0 is better
}

// fnvOffset is the FNV-1a state of the empty input.
const fnvOffset uint64 = 14695981039346656037

// fnv1a continues the FNV-1a state h over b.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

func fnv64(s string) uint64 { return mix(fnv1a(fnvOffset, s)) }

// mix finishes an FNV-1a state. FNV-1a alone avalanches the final bytes
// poorly into the high bits, which skews straw2 draws for IDs differing only
// in a trailing digit; a SplitMix64-style mixer spreads them.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// straw is one up OSD's draw for a placement group.
type straw struct {
	id    string
	score float64
}

// placePG appends to dst the replica set of a placement group over the up
// OSDs. Each draw hashes "pg-<pg>|<osd id>": the prefix is hashed once and
// its FNV-1a state continued with each id. cands is the draws' scratch,
// handed back for the next PG.
func (s *Store) placePG(dst []string, pg int, cands []straw) ([]string, []straw) {
	var buf [24]byte
	prefix := fnv1a(fnvOffset, append(strconv.AppendInt(append(buf[:0], "pg-"...), int64(pg), 10), '|'))
	cands = cands[:0]
	for _, id := range s.osdIDs {
		o := s.osds[id]
		if !o.Up {
			continue
		}
		cands = append(cands, straw{id, straw2(mix(fnv1a(prefix, id)), o.Weight)})
	}
	slices.SortFunc(cands, func(a, b straw) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	for _, c := range cands[:min(s.cfg.Replicas, len(cands))] {
		dst = append(dst, c.id)
	}
	return dst, cands
}

// remap recomputes every PG's replica set and adjusts per-OSD usage. The
// sets share one array, each capped at its own length.
func (s *Store) remap() {
	s.pgMap = make([][]string, s.cfg.PGs)
	ids := make([]string, 0, s.cfg.PGs*min(s.cfg.Replicas, len(s.osdIDs)))
	var cands []straw
	for pg := range s.pgMap {
		start := len(ids)
		ids, cands = s.placePG(ids, pg, cands)
		s.pgMap[pg] = ids[start:len(ids):len(ids)]
	}
	// Recompute usage from scratch: deterministic and simple.
	for _, o := range s.osds {
		o.used = 0
	}
	for _, obj := range s.objects {
		for _, id := range s.pgMap[obj.pg] {
			s.osds[id].used += obj.Size
		}
	}
	s.publishHealth()
}

func (s *Store) pgOf(bucket, key string) int {
	return int(fnv64(bucket+"/"+key) % uint64(s.cfg.PGs))
}

func objKey(bucket, key string) string { return bucket + "/" + key }

// Put stores an object. data may be nil for size-only (simulated bulk)
// objects. Overwriting an existing key replaces it. Returns the stored
// object's replica locations.
func (s *Store) Put(bucket, key string, size float64, data []byte) ([]string, error) {
	if size < 0 {
		return nil, fmt.Errorf("objstore: negative size for %s/%s", bucket, key)
	}
	if data != nil && size == 0 {
		size = float64(len(data))
	}
	pg := s.pgOf(bucket, key)
	replicas := s.pgMap[pg]
	if len(replicas) == 0 {
		return nil, ErrNoOSDs
	}
	if old, ok := s.objects[objKey(bucket, key)]; ok {
		s.dropUsage(old)
	}
	obj := &Object{Bucket: bucket, Key: key, Size: size, Data: data, pg: pg}
	s.objects[objKey(bucket, key)] = obj
	if s.buckets[bucket] == nil {
		s.buckets[bucket] = make(map[string]*Object)
	}
	s.buckets[bucket][key] = obj
	for _, id := range replicas {
		s.osds[id].used += size
	}
	s.publishHealth()
	return append([]string(nil), replicas...), nil
}

func (s *Store) dropUsage(obj *Object) {
	for _, id := range s.pgMap[obj.pg] {
		if o := s.osds[id]; o != nil {
			o.used -= obj.Size
			if o.used < 0 {
				o.used = 0
			}
		}
	}
}

// Get returns the object, or ErrNotFound. Reads succeed while at least one
// replica is on an up OSD.
func (s *Store) Get(bucket, key string) (*Object, error) {
	obj, ok := s.objects[objKey(bucket, key)]
	if !ok {
		return nil, ErrNotFound
	}
	for _, id := range s.pgMap[obj.pg] {
		if s.osds[id].Up {
			return obj, nil
		}
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrAllReplicasDown, bucket, key)
}

// Delete removes an object; deleting a missing object returns ErrNotFound.
func (s *Store) Delete(bucket, key string) error {
	obj, ok := s.objects[objKey(bucket, key)]
	if !ok {
		return ErrNotFound
	}
	s.dropUsage(obj)
	delete(s.objects, objKey(bucket, key))
	delete(s.buckets[bucket], key)
	s.publishHealth()
	return nil
}

// List returns the keys in a bucket in sorted order.
func (s *Store) List(bucket string) []string {
	var keys []string
	for k := range s.buckets[bucket] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BucketSize returns the total logical bytes in a bucket.
func (s *Store) BucketSize(bucket string) float64 {
	sum := 0.0
	for _, obj := range s.buckets[bucket] {
		sum += obj.Size
	}
	return sum
}

// Locations returns the OSD IDs currently holding the object's replicas.
func (s *Store) Locations(bucket, key string) []string {
	obj, ok := s.objects[objKey(bucket, key)]
	if !ok {
		return nil
	}
	return append([]string(nil), s.pgMap[obj.pg]...)
}

// Replica describes one replica placement of an object: which OSD holds it,
// the site that OSD lives at, and whether the daemon is currently up.
type Replica struct {
	OSD  string
	Site string
	Up   bool
}

// ReplicaPlacement resolves an object's current replica set with site and
// liveness detail — the data-gravity query the placement scheduler scores
// nodes against. Returns nil when the object does not exist.
func (s *Store) ReplicaPlacement(bucket, key string) []Replica {
	locs := s.Locations(bucket, key)
	if locs == nil {
		return nil
	}
	out := make([]Replica, 0, len(locs))
	for _, id := range locs {
		r := Replica{OSD: id}
		if o := s.osds[id]; o != nil {
			r.Site, r.Up = o.Site, o.Up
		}
		out = append(out, r)
	}
	return out
}

// PrimarySite returns the site of the object's primary replica, used by the
// workflow layer to source reads over the WAN.
func (s *Store) PrimarySite(bucket, key string) (string, bool) {
	locs := s.Locations(bucket, key)
	for _, id := range locs {
		if o := s.osds[id]; o != nil && o.Up {
			return o.Site, true
		}
	}
	return "", false
}

// FailOSD marks a daemon down and begins recovery: degraded PGs are remapped
// to surviving OSDs and the data they held is re-replicated at the
// configured recovery rate in virtual time. Returns the number of bytes that
// must be recovered.
func (s *Store) FailOSD(id string) (float64, error) {
	o, ok := s.osds[id]
	if !ok {
		return 0, ErrOSDUnknown
	}
	if !o.Up {
		return 0, nil
	}
	o.Up = false
	// Bytes needing re-replication: every object whose PG included this OSD.
	toRecover := 0.0
	for _, obj := range s.objects {
		for _, rid := range s.pgMap[obj.pg] {
			if rid == id {
				toRecover += obj.Size
				break
			}
		}
	}
	s.remap()
	if toRecover > 0 {
		s.recovering = true
		upCount := 0
		for _, od := range s.osds {
			if od.Up {
				upCount++
			}
		}
		rate := s.cfg.RecoveryRate * math.Max(1, float64(upCount))
		d := time.Duration(toRecover / rate * float64(time.Second))
		s.clock.After(d, func() {
			s.recovering = false
			s.publishHealth()
		})
	}
	return toRecover, nil
}

// RecoverOSD brings a failed daemon back up and rebalances onto it.
func (s *Store) RecoverOSD(id string) error {
	o, ok := s.osds[id]
	if !ok {
		return ErrOSDUnknown
	}
	o.Up = true
	s.remap()
	return nil
}

// Recovering reports whether background re-replication is in progress.
func (s *Store) Recovering() bool { return s.recovering }

// HealthReport summarizes PG and capacity state.
func (s *Store) HealthReport() Health {
	h := Health{PGsTotal: s.cfg.PGs}
	for pg := range s.pgMap {
		n := len(s.pgMap[pg])
		switch {
		case n < s.cfg.Replicas && s.recovering:
			h.PGsDegraded++
		case n < s.cfg.Replicas:
			h.PGsUndersized++
		default:
			h.PGsActive++
		}
	}
	for _, obj := range s.objects {
		h.BytesStored += obj.Size
		h.BytesRaw += obj.Size * float64(len(s.pgMap[obj.pg]))
	}
	return h
}

func (s *Store) publishHealth() {
	if s.healthGauge == nil {
		return
	}
	h := s.HealthReport()
	s.healthGauge.Set(float64(h.PGsDegraded + h.PGsUndersized))
	s.storedGauge.Set(h.BytesStored)
}

// TotalCapacity returns summed capacity of up OSDs.
func (s *Store) TotalCapacity() float64 {
	sum := 0.0
	for _, o := range s.osds {
		if o.Up {
			sum += o.Capacity
		}
	}
	return sum
}
