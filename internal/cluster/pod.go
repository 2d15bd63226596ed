package cluster

import (
	"fmt"
	"time"
)

// PodPhase is the lifecycle state of a pod.
type PodPhase int

// Pod lifecycle phases, mirroring the Kubernetes state machine.
const (
	PodPending PodPhase = iota
	PodRunning
	PodSucceeded
	PodFailed
)

func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodRunning:
		return "Running"
	case PodSucceeded:
		return "Succeeded"
	case PodFailed:
		return "Failed"
	}
	return fmt.Sprintf("PodPhase(%d)", int(p))
}

// Terminal reports whether the phase is final.
func (p PodPhase) Terminal() bool { return p == PodSucceeded || p == PodFailed }

// PodSpec declares a pod: what it requests and what its container does.
type PodSpec struct {
	Name      string
	Namespace string
	Requests  Resources
	// NodeSelector restricts scheduling to nodes whose labels contain every
	// listed pair ("Kubernetes object labeling conventions enabled
	// straightforward targeting of specific nodes").
	NodeSelector map[string]string
	Labels       map[string]string
	// Run is the container entrypoint, invoked in virtual time when the pod
	// starts on a node. The workload drives itself with ctx's clock and must
	// eventually call ctx.Succeed or ctx.Fail; pods whose node dies first are
	// failed by the node controller.
	Run func(ctx *PodCtx)
}

// Pod is a scheduled (or waiting) instance of a PodSpec.
type Pod struct {
	Spec  PodSpec
	UID   uint64
	Phase PodPhase
	// Node is the binding; empty while pending.
	Node string
	// Reason describes why the pod is in a non-normal state
	// (e.g. "NodeLost", "QuotaExceeded", "Unschedulable").
	Reason    string
	Index     int // worker index assigned by the owning Job
	CreatedAt time.Duration
	StartedAt time.Duration
	EndedAt   time.Duration

	cluster *Cluster
	ctx     *PodCtx
	owner   podOwner
	// released latches once node/namespace accounting has been returned, so
	// overlapping drain paths cannot double-subtract (see finishPod).
	released bool
}

// podOwner is implemented by controllers that need pod phase notifications.
type podOwner interface {
	podTerminated(p *Pod)
}

// Name returns namespace/name[uid] for logs.
func (p *Pod) Name() string {
	return fmt.Sprintf("%s/%s", p.Spec.Namespace, p.Spec.Name)
}

// PodCtx is the container's view of the world while running.
type PodCtx struct {
	pod     *Pod
	cluster *Cluster
	alive   bool
}

// Pod returns the pod this context belongs to.
func (c *PodCtx) Pod() *Pod { return c.pod }

// Index returns the worker index assigned by the owning controller.
func (c *PodCtx) Index() int { return c.pod.Index }

// NodeName returns the node the pod runs on.
func (c *PodCtx) NodeName() string { return c.pod.Node }

// Alive reports whether the container is still running (false once the pod
// terminated, e.g. because its node was lost). Long-running workloads should
// check this between virtual-time steps.
func (c *PodCtx) Alive() bool { return c.alive }

// After schedules fn on the virtual clock; fn is skipped if the pod has
// terminated by then, so workloads need no explicit cancellation plumbing.
func (c *PodCtx) After(d time.Duration, fn func()) {
	c.cluster.clock.After(d, func() {
		if c.alive {
			fn()
		}
	})
}

// Succeed marks the pod complete.
func (c *PodCtx) Succeed() { c.cluster.finishPod(c.pod, PodSucceeded, "") }

// Fail marks the pod failed with a reason.
func (c *PodCtx) Fail(reason string) { c.cluster.finishPod(c.pod, PodFailed, reason) }
