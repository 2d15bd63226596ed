package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements the scheduling controllers the paper's workflows use:
// the Job resource ("for a workflow it is usually the Job resource that is
// most prevalent because it can execute batch process at scale"). Controllers
// watch pod terminations and reconcile toward declared state, including
// respawning pods lost to node failures.

// PodTemplate declares the pods a controller stamps out. Run receives the
// pod context; the worker index is available via ctx.Index().
type PodTemplate struct {
	Requests     Resources
	NodeSelector map[string]string
	Labels       map[string]string
	Run          func(ctx *PodCtx)
}

// JobSpec declares a batch job.
type JobSpec struct {
	Name      string
	Namespace string
	// Parallelism is the number of pods kept running simultaneously.
	Parallelism int
	// Completions is the number of successful pods required to complete the
	// job. Zero defaults to Parallelism (the work-queue pattern used by the
	// paper's download step: each worker drains the Redis queue and exits).
	Completions int
	// BackoffLimit is the number of pod failures tolerated before the job is
	// marked failed. Node-loss restarts do not count against the limit,
	// matching Kubernetes' treatment of evictions.
	BackoffLimit int
	Template     PodTemplate
}

// Job is a running batch job.
type Job struct {
	Spec JobSpec

	cluster    *Cluster
	succeeded  int
	failures   int
	active     map[uint64]*Pod
	nextIndex  int
	done       bool
	failed     bool
	onComplete []func(ok bool)
	pods       []*Pod // every pod ever created, for inspection
}

// CreateJob submits a job; the controller immediately creates Parallelism
// pods.
func (c *Cluster) CreateJob(spec JobSpec) (*Job, error) {
	if spec.Parallelism <= 0 {
		return nil, errors.New("cluster: JobSpec.Parallelism must be positive")
	}
	if spec.Completions <= 0 {
		spec.Completions = spec.Parallelism
	}
	if spec.Template.Run == nil {
		return nil, errors.New("cluster: JobSpec.Template.Run is nil")
	}
	j := &Job{Spec: spec, cluster: c, active: make(map[uint64]*Pod)}
	c.logEvent("JobCreated", spec.Namespace+"/"+spec.Name,
		"parallelism=%d completions=%d", spec.Parallelism, spec.Completions)
	j.reconcile()
	return j, nil
}

// Done reports whether the job reached Completions successes.
func (j *Job) Done() bool { return j.done }

// Pods returns every pod the job has created, in creation order.
func (j *Job) Pods() []*Pod { return j.pods }

// OnComplete registers fn to run when the job finishes; ok is true for
// success. If already finished, fn runs immediately.
func (j *Job) OnComplete(fn func(ok bool)) {
	if j.done || j.failed {
		fn(j.done)
		return
	}
	j.onComplete = append(j.onComplete, fn)
}

// reconcile tops up active pods until the remaining completions are covered.
func (j *Job) reconcile() {
	if j.done || j.failed {
		return
	}
	want := j.Spec.Parallelism
	if remaining := j.Spec.Completions - j.succeeded; want > remaining {
		want = remaining
	}
	for len(j.active) < want {
		idx := j.nextIndex
		j.nextIndex++
		spec := PodSpec{
			Name:         fmt.Sprintf("%s-%d", j.Spec.Name, idx),
			Namespace:    j.Spec.Namespace,
			Requests:     j.Spec.Template.Requests,
			NodeSelector: j.Spec.Template.NodeSelector,
			Labels:       j.Spec.Template.Labels,
			Run:          j.Spec.Template.Run,
		}
		p, err := j.cluster.CreatePod(spec)
		if err != nil {
			// Namespace vanished: fail the job.
			j.failed = true
			j.finish()
			return
		}
		p.Index = idx
		p.owner = j
		j.active[p.UID] = p
		j.pods = append(j.pods, p)
	}
}

// podTerminated implements podOwner.
func (j *Job) podTerminated(p *Pod) {
	delete(j.active, p.UID)
	if j.done || j.failed {
		return
	}
	switch {
	case p.Phase == PodSucceeded:
		j.succeeded++
		if j.succeeded >= j.Spec.Completions {
			j.done = true
			j.cluster.logEvent("JobComplete", j.Spec.Namespace+"/"+j.Spec.Name,
				"%d completions", j.succeeded)
			j.finish()
			return
		}
	case p.Reason == "NodeLost":
		// Eviction: respawn without charging backoff.
		j.cluster.logEvent("JobPodEvicted", p.Name(), "respawning after node loss")
	default:
		j.failures++
		if j.failures > j.Spec.BackoffLimit {
			j.failed = true
			j.cluster.logEvent("JobFailed", j.Spec.Namespace+"/"+j.Spec.Name,
				"backoff limit %d exceeded", j.Spec.BackoffLimit)
			j.finish()
			return
		}
	}
	j.reconcile()
}

func (j *Job) finish() {
	// Terminate any stragglers (e.g. remaining workers once completions met).
	var rest []*Pod
	for _, p := range j.active {
		rest = append(rest, p)
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a].UID < rest[b].UID })
	for _, p := range rest {
		j.cluster.DeletePod(p)
	}
	j.active = make(map[uint64]*Pod)
	for _, fn := range j.onComplete {
		fn(j.done)
	}
	j.onComplete = nil
}
