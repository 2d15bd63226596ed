// Package cluster is the simulated Kubernetes layer of CHASE-CI: nodes
// (FIONAs and FIONA8 GPU appliances) register capacity, namespaces partition
// the cluster into virtual clusters with quotas, and a Job controller
// reconciles declared state while a scheduler binds pods to nodes.
// Nodes can join and leave at any time; pods on a lost node are failed and
// their controllers respawn them elsewhere, reproducing the self-healing
// behaviour Section V of the paper describes. All activity runs in virtual
// time on a sim.Clock.
package cluster

import "fmt"

// Resources describes compute capacity or a pod's request: CPU cores, bytes
// of memory, and whole GPUs (exposed through the device-plugin model the
// paper uses for CHASE-CI's game GPUs).
type Resources struct {
	CPU    float64
	Memory float64
	GPUs   int
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, Memory: r.Memory + o.Memory, GPUs: r.GPUs + o.GPUs}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, Memory: r.Memory - o.Memory, GPUs: r.GPUs - o.GPUs}
}

// Fits reports whether a request r fits within available a.
func (r Resources) Fits(a Resources) bool {
	return r.CPU <= a.CPU+1e-9 && r.Memory <= a.Memory+1e-9 && r.GPUs <= a.GPUs
}

// IsZero reports whether all fields are zero.
func (r Resources) IsZero() bool { return r.CPU == 0 && r.Memory == 0 && r.GPUs == 0 }

func (r Resources) String() string {
	return fmt.Sprintf("cpu=%.1f mem=%.1fGB gpus=%d", r.CPU, r.Memory/1e9, r.GPUs)
}

// GB is a convenience for expressing memory sizes.
func GB(n float64) float64 { return n * 1e9 }

// FIONA8Capacity is the multi-tenant "FIONA8" appliance: eight game GPUs.
func FIONA8Capacity() Resources { return Resources{CPU: 24, Memory: GB(96), GPUs: 8} }
