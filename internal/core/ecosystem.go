// Package core is the paper's primary contribution assembled: the CHASE-CI
// ecosystem plus the workflow-driven machine-learning case study of Section
// III. The ecosystem (Nautilus) is a sched.Fabric built from a fixed table:
// Kubernetes-managed FIONA8 GPU appliances and Ceph OSDs at six PRP
// campuses, each uplinked to the backbone, and the THREDDS DTN serving the
// NASA archive. Its cluster, network and store run on one sim.Clock with the
// virtual-time metric registry its figures are drawn from, beside a Redis
// work queue and CILogon-style federated auth. The case study is the 4-step
// CONNECT object-segmentation workflow in virtual time: each step is its
// Kubernetes jobs over the paper's fixed deployment, and its Table I row is
// summed from their requests; a run varies only the archive slice,
// subsetting and the real compute. Its compute steps also run for real at
// experiment scale, as chased/v1 jobs against the ecosystem's dataset plane.
package core

import (
	"fmt"
	"time"

	"chaseci/internal/auth"
	"chaseci/internal/cluster"
	"chaseci/internal/gpusim"
	"chaseci/internal/metrics"
	"chaseci/internal/netsim"
	"chaseci/internal/objstore"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
	"chaseci/internal/sim"
)

// campus is one PRP site in the Nautilus build-out.
type campus struct {
	name    string
	fiona8s int // 8-GPU appliances at the site
	osds    int // Ceph OSDs (storage FIONAs) at the site
	// uplinkGbps is the site's link into the PRP backbone, latency its
	// one-way backbone latency.
	uplinkGbps float64
	latency    time.Duration
}

// sites is the Nautilus build-out, shaped like the paper's description: a
// handful of UC campuses with multi-tenant FIONA8s, over a petabyte of
// distributed storage, 10-100 Gbps links. 24 FIONA8s x 8 = 192 GPUs covers
// the case study's 50-GPU inference with multi-tenant headroom.
var sites = [...]campus{
	{"ucsd", 8, 4, 100, 500 * time.Microsecond},
	{"calit2", 6, 3, 100, 500 * time.Microsecond},
	{"sdsc", 4, 3, 100, 500 * time.Microsecond},
	{"ucmerced", 3, 1, 40, 4 * time.Millisecond},
	{"ucsc", 2, 1, 10, 3 * time.Millisecond},
	{"uci", 1, 1, 10, 2 * time.Millisecond},
}

const (
	// backbone is the PRP's core optical exchange every site uplinks into.
	backbone = "prp-core"
	// threddsSite hosts the THREDDS DTN serving the NASA archive. Its uplink
	// bounds the data server's effective serving rate (disk + subsetting
	// pipeline), the observed bottleneck of the paper's step 1; calibrated
	// to 246 GB in ~37 min sustained.
	threddsSite       = "thredds-dtn"
	threddsUplinkGbps = 0.94
	osdCapacity       = 100e12 // bytes per OSD
	replicas          = 3      // Ceph replication factor
	placementGroups   = 512
	federationSeed    = 1
)

// Ecosystem is a fully wired CHASE-CI instance: a sched.Fabric whose
// cluster, network and Ceph store all run on one virtual clock and report
// to one metric registry. The fabric's Datasets is the content-addressed
// data plane over Storage: what a chased/v1 job run against the ecosystem
// reads and writes by ref is a replicated object of the simulated Ceph.
type Ecosystem struct {
	*sched.Fabric
	Clock   *sim.Clock
	Metrics *metrics.Registry
	Storage *objstore.Store
	Queue   *queue.Store
	Auth    *auth.Federation
}

// Nautilus constructs the simulated cluster: backbone star topology around
// a core exchange, FIONA8 nodes registered with Kubernetes, OSDs registered
// with Ceph, CILogon providers for each campus.
func Nautilus() *Ecosystem {
	clk := sim.NewClock()
	reg := metrics.NewRegistry(clk)
	net := netsim.NewNetwork(clk, reg)
	cl := cluster.New(clk, reg)
	store := objstore.NewStore(clk, reg, objstore.Config{Replicas: replicas, PGs: placementGroups})
	fab := sched.Compose(cl, net, store, sched.FabricConfig{OSDCapacity: osdCapacity})
	fed := auth.NewFederation(clk, 12*time.Hour, federationSeed)

	fab.AddSite(backbone)
	for _, s := range sites {
		fab.AddSite(s.name)
		fab.AddLink(s.name, backbone, netsim.Gbps(s.uplinkGbps), s.latency)
		fed.RegisterProvider(s.name+" SSO", s.name+".edu")
		for i := 0; i < s.fiona8s; i++ {
			if err := fab.AddNode(sched.NodeSpec{
				Name:     fmt.Sprintf("%s-fiona8-%02d", s.name, i),
				Site:     s.name,
				Capacity: cluster.FIONA8Capacity(),
				Model:    gpusim.Powered1080Ti(),
				Labels:   map[string]string{"site": s.name, "gpu": "1080ti"},
			}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < s.osds; i++ {
			fab.AddOSD(fmt.Sprintf("%s-osd-%02d", s.name, i), s.name)
		}
	}
	fab.AddSite(threddsSite)
	fab.AddLink(threddsSite, backbone, netsim.Gbps(threddsUplinkGbps), time.Millisecond)

	return &Ecosystem{
		Fabric:  fab,
		Clock:   clk,
		Metrics: reg,
		Storage: store,
		Queue:   queue.NewStore(),
		Auth:    fed,
	}
}

// Sites returns the number of campuses in the build-out.
func (e *Ecosystem) Sites() int { return len(sites) }

// TotalGPUs returns the schedulable GPU count.
func (e *Ecosystem) TotalGPUs() int { return e.Cluster.TotalCapacity().GPUs }

// StorageBytes returns the raw Ceph capacity across up OSDs.
func (e *Ecosystem) StorageBytes() float64 { return e.Storage.TotalCapacity() }
