// Package sched is the data-gravity placement layer of the simulated
// CHASE-CI fabric: it decides which cluster node a ref-mode service job runs
// on by weighing where the job's dataset replicas physically live (Ceph OSD
// placement) against node capacity and per-owner quotas. The paper's
// thesis — "move the computation to the data" across the PRP's FIONA sites —
// becomes a concrete scoring rule here: a node co-located with an up replica
// of every input costs nothing, a same-site node pays the LAN, and anything
// else pays a simulated WAN transfer over the netsim topology.
package sched

import (
	"fmt"
	"sort"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/dataset"
	"chaseci/internal/gpusim"
	"chaseci/internal/netsim"
	"chaseci/internal/objstore"
	"chaseci/internal/sim"
)

// NodeSpec declares one fabric node: a FIONA appliance at a site, with a
// device model for energy estimates and optionally a co-located Ceph OSD
// (the paper's converged compute+storage FIONAs).
type NodeSpec struct {
	Name     string
	Site     string
	Capacity cluster.Resources
	Model    gpusim.PoweredModel
	// OSD, when non-empty, co-locates a storage daemon of that id on the
	// node; jobs whose refs land on this OSD score replica-local here.
	OSD    string
	Labels map[string]string
}

// FabricConfig tunes fabric construction.
type FabricConfig struct {
	// Replicas is the objstore replication factor NewFabric builds its
	// store with (default 2).
	Replicas int
	// OwnerQuota, when non-nil, caps the summed resource requests any one
	// owner may hold placed at once.
	OwnerQuota *cluster.Resources
	// OSDCapacity is the per-OSD capacity in bytes (default 1e12).
	OSDCapacity float64
}

func (c *FabricConfig) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.OSDCapacity <= 0 {
		c.OSDCapacity = 1e12
	}
}

// lanBytesPerSec is the intra-site staging rate used for same-site replicas
// (netsim's local rate).
const lanBytesPerSec = 10e9

// Fabric wires the simulated substrate the scheduler places onto: a cluster
// of nodes, a netsim WAN between their sites, and a dataset manager whose
// objstore replicas define data gravity. It is the one place a topology is
// built: the serving fabric (NewFabric) and core's Nautilus ecosystem both
// register their nodes and OSDs through it.
type Fabric struct {
	cfg FabricConfig

	Cluster  *cluster.Cluster
	Net      *netsim.Network
	Datasets *dataset.Manager

	store *objstore.Store // construction-time only; runtime access via Datasets

	nodes     map[string]*NodeSpec
	nodeNames []string
	osdNode   map[string]string // OSD id -> node name
}

// Compose builds an empty fabric over substrates the caller built on clocks
// and a registry of its choosing, with the store's "datasets" bucket as its
// data plane; populate with AddSite/AddLink/AddNode/AddOSD. The store keeps
// its own replication factor: cfg.Replicas is not consulted.
func Compose(cl *cluster.Cluster, net *netsim.Network, store *objstore.Store, cfg FabricConfig) *Fabric {
	cfg.defaults()
	return &Fabric{
		cfg:      cfg,
		Cluster:  cl,
		Net:      net,
		Datasets: dataset.NewManager(store.MountBucket("datasets"), dataset.Config{}),
		store:    store,
		nodes:    make(map[string]*NodeSpec),
		osdNode:  make(map[string]string),
	}
}

// NewFabric builds an empty serving fabric; populate with AddSite/AddLink/
// AddNode.
//
// Two independent virtual clocks keep the lock order acyclic: the data clock
// drives the objstore and is only touched under the dataset manager's lock;
// the control clock drives the cluster and network and is only touched under
// the scheduler's lock. No metric registry rides on either clock: the
// scheduler renders /metricz from its own state (Scheduler.MetricsText).
func NewFabric(cfg FabricConfig) *Fabric {
	cfg.defaults()
	ctrlClk := sim.NewClock()
	store := objstore.NewStore(sim.NewClock(), nil, objstore.Config{Replicas: cfg.Replicas})
	return Compose(cluster.New(ctrlClk, nil), netsim.NewNetwork(ctrlClk, nil), store, cfg)
}

// AddSite registers a network site (idempotent).
func (f *Fabric) AddSite(name string) { f.Net.AddSite(name) }

// AddLink joins two sites with a WAN link.
func (f *Fabric) AddLink(a, b string, capacityBps float64, latency time.Duration) {
	f.Net.AddLink(a, b, capacityBps, latency)
}

// AddNode joins a node (and its co-located OSD, if declared) to the fabric.
// The site is registered implicitly.
func (f *Fabric) AddNode(spec NodeSpec) error {
	if _, dup := f.nodes[spec.Name]; dup {
		return cluster.ErrDuplicate
	}
	if _, dup := f.osdNode[spec.OSD]; spec.OSD != "" && dup {
		return fmt.Errorf("sched: OSD %q already placed: %w", spec.OSD, cluster.ErrDuplicate)
	}
	f.Net.AddSite(spec.Site)
	if _, err := f.Cluster.AddNode(spec.Name, spec.Site, spec.Capacity, spec.Labels); err != nil {
		return err
	}
	if spec.OSD != "" {
		f.store.AddOSD(spec.OSD, spec.Site, f.cfg.OSDCapacity, 1)
		f.osdNode[spec.OSD] = spec.Name
	}
	sp := spec
	f.nodes[spec.Name] = &sp
	f.nodeNames = append(f.nodeNames, spec.Name)
	sort.Strings(f.nodeNames)
	return nil
}

// AddOSD registers a storage-only daemon at a site (no co-located compute —
// replicas there are reachable but never replica-local).
func (f *Fabric) AddOSD(id, site string) {
	f.Net.AddSite(site)
	f.store.AddOSD(id, site, f.cfg.OSDCapacity, 1)
}

// NodeNames returns all fabric node names, sorted.
func (f *Fabric) NodeNames() []string { return append([]string(nil), f.nodeNames...) }

// DefaultFabric is the three-site reference topology used by `chased serve
// --cluster`: UCSD, UCI and SDSU pairwise-linked (the Pacific Research
// Platform's southern-California core), two FIONA8 appliances per site, and
// one OSD co-located on the first appliance of each site. Replication factor
// 2 means every dataset has exactly two replica-local nodes.
func DefaultFabric() *Fabric {
	f := NewFabric(FabricConfig{Replicas: 2})
	sites := []string{"sdsu", "ucsd", "uci"}
	for _, s := range sites {
		f.AddSite(s)
	}
	f.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	f.AddLink("ucsd", "uci", netsim.Gbps(40), 2*time.Millisecond)
	f.AddLink("sdsu", "uci", netsim.Gbps(10), 3*time.Millisecond)
	for _, s := range sites {
		for i := 0; i < 2; i++ {
			spec := NodeSpec{
				Name:     fmt.Sprintf("fiona-%s-%d", s, i),
				Site:     s,
				Capacity: cluster.FIONA8Capacity(),
				Model:    gpusim.Powered1080Ti(),
				Labels:   map[string]string{"gpu": "1080ti"},
			}
			if i == 0 {
				spec.OSD = "osd-" + s
			}
			if err := f.AddNode(spec); err != nil {
				panic(err)
			}
		}
	}
	return f
}
