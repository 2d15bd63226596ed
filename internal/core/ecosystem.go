// Package core is the paper's primary contribution assembled: the CHASE-CI
// ecosystem (Kubernetes-managed GPU appliances and Ceph storage on the PRP
// WAN, a virtual-time metric registry its figures are drawn from, a Redis
// work queue, and CILogon-style federated auth) plus the workflow-driven machine-learning
// case study of Section III — the 4-step CONNECT object-segmentation
// workflow with per-step measurement. Everything runs in virtual time on a
// single sim.Clock; the FFN/CONNECT compute paths run for real at
// experiment scale.
package core

import (
	"fmt"
	"time"

	"chaseci/internal/auth"
	"chaseci/internal/cluster"
	"chaseci/internal/dataset"
	"chaseci/internal/metrics"
	"chaseci/internal/netsim"
	"chaseci/internal/objstore"
	"chaseci/internal/queue"
	"chaseci/internal/sim"
)

// SiteSpec describes one PRP campus in the Nautilus build-out.
type SiteSpec struct {
	Name string
	// FIONA8s is the number of 8-GPU appliances at the site.
	FIONA8s int
	// StorageOSDs is the number of Ceph OSDs (storage FIONAs) at the site.
	StorageOSDs int
	// OSDCapacity is the capacity of each OSD in bytes.
	OSDCapacity float64
	// UplinkGbps is the site's link into the PRP backbone.
	UplinkGbps float64
	// LatencyMS is the one-way backbone latency to the site.
	LatencyMS float64
}

// NautilusConfig declares a whole cluster build.
type NautilusConfig struct {
	Sites []SiteSpec
	// ThreddsSite hosts the THREDDS DTN serving the NASA archive; it is
	// added as a network site with its own uplink.
	ThreddsSite string
	// ThreddsUplinkGbps bounds the data server's effective serving rate
	// (disk + subsetting pipeline), the observed bottleneck of the paper's
	// step 1.
	ThreddsUplinkGbps float64
	// Replicas is the Ceph replication factor.
	Replicas int
	Seed     uint64
}

// DefaultNautilus returns a cluster shaped like the paper's description: a
// handful of UC campuses with multi-tenant FIONA8s, over a petabyte of
// distributed storage, 10-100 Gbps links. 24 FIONA8s x 8 = 192 GPUs covers
// the case study's 50-GPU inference with multi-tenant headroom.
func DefaultNautilus() NautilusConfig {
	mk := func(name string, f8, osds int, gbps, lat float64) SiteSpec {
		return SiteSpec{
			Name: name, FIONA8s: f8, StorageOSDs: osds,
			OSDCapacity: 100e12, UplinkGbps: gbps, LatencyMS: lat,
		}
	}
	return NautilusConfig{
		Sites: []SiteSpec{
			mk("ucsd", 8, 4, 100, 0.5),
			mk("calit2", 6, 3, 100, 0.5),
			mk("sdsc", 4, 3, 100, 0.5),
			mk("ucmerced", 3, 1, 40, 4),
			mk("ucsc", 2, 1, 10, 3),
			mk("uci", 1, 1, 10, 2),
		},
		ThreddsSite:       "thredds-dtn",
		ThreddsUplinkGbps: 0.94, // calibrated: 246 GB in ~37 min sustained
		Replicas:          3,
		Seed:              1,
	}
}

// Ecosystem is a fully wired CHASE-CI instance.
type Ecosystem struct {
	Clock   *sim.Clock
	Metrics *metrics.Registry
	Net     *netsim.Network
	Cluster *cluster.Cluster
	Storage *objstore.Store
	// Datasets is the content-addressed data plane over Storage: what a
	// chased/v1 job run against the ecosystem reads and writes by ref is a
	// replicated object of the simulated Ceph.
	Datasets *dataset.Manager
	Queue    *queue.Store
	Auth     *auth.Federation

	Config NautilusConfig
}

// BuildNautilus constructs the simulated cluster: backbone star topology
// around a core exchange, FIONA8 nodes registered with Kubernetes, OSDs
// registered with Ceph, CILogon providers for each campus.
func BuildNautilus(cfg NautilusConfig) *Ecosystem {
	clk := sim.NewClock()
	reg := metrics.NewRegistry(clk)
	net := netsim.NewNetwork(clk, reg)
	cl := cluster.New(clk, reg)
	store := objstore.NewStore(clk, reg, objstore.Config{
		Replicas: cfg.Replicas,
		PGs:      512,
	})
	fed := auth.NewFederation(clk, 12*time.Hour, cfg.Seed)

	// PRP backbone: a core optical exchange every site uplinks into.
	const backbone = "prp-core"
	net.AddSite(backbone)
	for _, site := range cfg.Sites {
		net.AddSite(site.Name)
		net.AddLink(site.Name, backbone, netsim.Gbps(site.UplinkGbps),
			time.Duration(site.LatencyMS*float64(time.Millisecond)))
		fed.RegisterProvider(site.Name+" SSO", site.Name+".edu")
		for i := 0; i < site.FIONA8s; i++ {
			name := fmt.Sprintf("%s-fiona8-%02d", site.Name, i)
			if _, err := cl.AddNode(name, site.Name, cluster.FIONA8Capacity(),
				map[string]string{"site": site.Name, "gpu": "1080ti"}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < site.StorageOSDs; i++ {
			store.AddOSD(fmt.Sprintf("%s-osd-%02d", site.Name, i), site.Name,
				site.OSDCapacity, 1)
		}
	}
	if cfg.ThreddsSite != "" {
		net.AddSite(cfg.ThreddsSite)
		net.AddLink(cfg.ThreddsSite, backbone, netsim.Gbps(cfg.ThreddsUplinkGbps),
			time.Millisecond)
	}

	return &Ecosystem{
		Clock:    clk,
		Metrics:  reg,
		Net:      net,
		Cluster:  cl,
		Storage:  store,
		Datasets: dataset.NewManager(store.MountBucket("datasets"), dataset.Config{}),
		Queue:    queue.NewStore(),
		Auth:     fed,
		Config:   cfg,
	}
}

// Backbone returns the core exchange site name.
func (e *Ecosystem) Backbone() string { return "prp-core" }

// TotalGPUs returns the schedulable GPU count.
func (e *Ecosystem) TotalGPUs() int { return e.Cluster.TotalCapacity().GPUs }

// StorageBytes returns the raw Ceph capacity across up OSDs.
func (e *Ecosystem) StorageBytes() float64 { return e.Storage.TotalCapacity() }
