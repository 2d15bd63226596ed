package sched

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/netsim"
	"chaseci/internal/objstore"
	"chaseci/internal/sim"
)

func fionaSpec(name, site, osd string) NodeSpec {
	return NodeSpec{Name: name, Site: site, Capacity: cluster.FIONA8Capacity(), OSD: osd}
}

// Compose registers nodes, OSDs and sites on the substrates it is handed,
// all on the caller's one clock, and mounts its data plane on the caller's
// store.
func TestComposeRegistersOnCallersSubstrates(t *testing.T) {
	clk := sim.NewClock()
	cl := cluster.New(clk, nil)
	net := netsim.NewNetwork(clk, nil)
	store := objstore.NewStore(clk, nil, objstore.Config{Replicas: 1})
	f := Compose(cl, net, store, FabricConfig{OSDCapacity: 5e9})
	if f.Cluster != cl || f.Net != net {
		t.Fatal("Compose did not keep the caller's cluster and network")
	}
	if err := f.AddNode(fionaSpec("x0", "site-x", "osd-x")); err != nil {
		t.Fatal(err)
	}
	f.AddOSD("osd-y", "site-y")

	if n := cl.Node("x0"); n == nil || n.Site != "site-x" {
		t.Fatalf("cluster node x0 = %+v, want one at site-x", n)
	}
	for id, site := range map[string]string{"osd-x": "site-x", "osd-y": "site-y"} {
		o := osdByID(store, id)
		if o == nil || o.Site != site || o.Capacity != 5e9 {
			t.Fatalf("OSD %s = %+v, want site %s capacity 5e9", id, o, site)
		}
	}
	// Both sites are known to the network: a link between them routes.
	f.AddLink("site-x", "site-y", netsim.Gbps(10), time.Millisecond)
	if net.Path("site-x", "site-y") == nil {
		t.Fatal("no path between the sites AddNode and AddOSD registered")
	}
	putVolume(t, f, 1)
	if len(store.List("datasets")) == 0 {
		t.Fatal("Datasets.Put stored nothing in the caller's datasets bucket")
	}
}

// The store keeps the replication factor it was built with; Compose does
// not consult cfg.Replicas.
func TestComposeKeepsStoreReplication(t *testing.T) {
	clk := sim.NewClock()
	store := objstore.NewStore(clk, nil, objstore.Config{Replicas: 3})
	f := Compose(cluster.New(clk, nil), netsim.NewNetwork(clk, nil), store, FabricConfig{Replicas: 1})
	for _, id := range []string{"osd-0", "osd-1", "osd-2"} {
		f.AddOSD(id, "site")
	}
	if got := store.Replicas(); got != 3 {
		t.Fatalf("store replicas = %d, want 3", got)
	}
	if got := len(f.Datasets.Placement(putVolume(t, f, 1))); got != 3 {
		t.Fatalf("dataset has %d replicas, want 3", got)
	}
}

// NewFabric builds its own store at cfg.Replicas (default 2) with OSDs of
// cfg.OSDCapacity (default 1e12 bytes).
func TestNewFabricDefaults(t *testing.T) {
	f := NewFabric(FabricConfig{})
	if err := f.AddNode(fionaSpec("a0", "site-a", "osd-a")); err != nil {
		t.Fatal(err)
	}
	if got := f.store.Replicas(); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	if got := osdByID(f.store, "osd-a").Capacity; got != 1e12 {
		t.Fatalf("OSD capacity = %g, want 1e12", got)
	}

	f = NewFabric(FabricConfig{Replicas: 3, OSDCapacity: 7e9})
	f.AddOSD("osd-b", "site-b")
	if f.store.Replicas() != 3 || osdByID(f.store, "osd-b").Capacity != 7e9 {
		t.Fatalf("replicas %d, OSD capacity %g; want 3, 7e9",
			f.store.Replicas(), osdByID(f.store, "osd-b").Capacity)
	}
}

// A refused AddNode leaves nothing behind: no cluster node, no fabric node,
// no OSD.
func TestAddNodeRefusesDuplicates(t *testing.T) {
	f := NewFabric(FabricConfig{})
	if err := f.AddNode(fionaSpec("a0", "site-a", "osd-a")); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNode(fionaSpec("a0", "site-b", "osd-b")); !errors.Is(err, cluster.ErrDuplicate) {
		t.Fatalf("duplicate node: err = %v, want ErrDuplicate", err)
	}
	if osdByID(f.store, "osd-b") != nil || f.nodes["a0"].Site != "site-a" {
		t.Fatal("duplicate node changed the fabric")
	}
	if err := f.AddNode(fionaSpec("a1", "site-a", "osd-a")); !errors.Is(err, cluster.ErrDuplicate) {
		t.Fatalf("duplicate OSD: err = %v, want ErrDuplicate", err)
	}
	if f.Cluster.Node("a1") != nil || f.nodes["a1"] != nil {
		t.Fatal("a node refused for its OSD was still registered")
	}
	if got := len(f.store.OSDs()); got != 1 {
		t.Fatalf("%d OSDs, want 1", got)
	}
}

// A storage-only OSD holds replicas but makes no node replica-local, and
// NodeNames lists compute nodes only, sorted, as a copy.
func TestAddOSDIsStorageOnly(t *testing.T) {
	f := NewFabric(FabricConfig{})
	for _, n := range []string{"c0", "a0", "b0"} {
		if err := f.AddNode(fionaSpec(n, "site-a", "")); err != nil {
			t.Fatal(err)
		}
	}
	f.AddOSD("osd-s", "site-s")
	names := f.NodeNames()
	if want := []string{"a0", "b0", "c0"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("NodeNames = %v, want %v", names, want)
	}
	names[0] = "zz"
	if f.NodeNames()[0] != "a0" {
		t.Fatal("NodeNames returned the fabric's own slice")
	}
	if o := osdByID(f.store, "osd-s"); o == nil || o.Site != "site-s" {
		t.Fatalf("OSD osd-s = %+v, want one at site-s", o)
	}
	if node, ok := f.osdNode["osd-s"]; ok {
		t.Fatalf("storage-only OSD is co-located with %s", node)
	}
}

// osdByID returns the store's daemon with the given ID, or nil.
func osdByID(s *objstore.Store, id string) *objstore.OSD {
	for _, o := range s.OSDs() {
		if o.ID == id {
			return o
		}
	}
	return nil
}
