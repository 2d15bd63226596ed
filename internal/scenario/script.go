// Package scenario is the deterministic chaos-replay engine: it runs the
// full gateway → service → sched fabric → objstore/dataset stack inside one
// seeded world and injects scripted adversity — link loss and bandwidth
// collapse on the netsim WAN, OSD loss under a dataset write, node kill
// under a running job, site partition with heal, worker panics — then checks
// the invariants the platform promises under all of it: results
// bit-identical to an undisturbed run, dataset pins and scheduler claims
// balanced back to zero, exactly-once requeue accounting, and forward
// progress within a deadline. Every random choice (fault victims, injected volumes) draws from
// a forked sim.RNG stream, so a scenario replays exactly from its seed.
package scenario

import (
	"fmt"
	"time"

	"chaseci/internal/netsim"
)

// JobSpec declares one workload job. The engine turns it into an HTTP submit
// against the in-world gateway.
type JobSpec struct {
	// Kind is "segment" (ref-mode segmentation over a seeded volume the
	// engine uploads), "ivt" (a ref-mode synthetic IVT derivation, which
	// writes its volume to the dataset store), or "train_dist"
	// (checkpointing data-parallel training over the same seeded volume).
	Kind string `json:"kind"`
	// Site pins placement to one fabric site ("" = anywhere).
	Site string `json:"site,omitempty"`
	// Deferred jobs are not submitted at scenario start; an explicit
	// "submit" event injects them mid-script (e.g. into a partitioned
	// fabric). The undisturbed baseline run submits them normally.
	Deferred bool `json:"deferred,omitempty"`
	// ResumePrev (train_dist only) makes the submit wait for the previous
	// job to succeed and resume from its final checkpoint ref — in the
	// disturbed and baseline worlds alike, so the continued loss curves can
	// be compared bit-for-bit.
	ResumePrev bool `json:"resume_prev,omitempty"`
}

// Action kinds understood by the event interpreter.
const (
	// Fault injection.
	ActKillNode    = "kill_node"    // Node ("" = the node job Job is bound to)
	ActRestoreNode = "restore_node" // Node ("" = last killed)
	ActFailOSD     = "fail_osd"     // OSD
	ActRecoverOSD  = "recover_osd"  // OSD
	ActPartition   = "partition"    // Site: down every WAN link touching it
	ActHeal        = "heal"         // Site: restore them
	ActSetLink     = "link"         // LinkA/LinkB + Capacity/Loss/Down
	ActLinkTrace   = "link_trace"   // LinkA/LinkB + Trace (virtual times)
	ActPanicNext   = "panic_next"   // Count handler executions panic
	ActHoldNext    = "hold_next"    // Count handler executions block
	ActRelease     = "release"      // release all held executions

	// Synchronization: make fault timing deterministic relative to job
	// lifecycles regardless of wall-clock scheduling.
	ActAwaitHold   = "await_hold"   // wait until a held execution is parked
	ActAwaitParked = "await_parked" // wait until job Job is queued & unbound
	ActAwaitBound  = "await_bound"  // wait until job Job is bound to a node
	ActAwaitDone   = "await_done"   // wait until job Job is terminal
	ActSubmit      = "submit"       // submit deferred job Job now

	// Measurement: drive a bulk transfer through the fluid-flow model in
	// virtual time (link traces fire along the way).
	ActTransfer = "transfer" // LinkA -> LinkB sites, Bytes, MinElapsed/MaxElapsed
)

// Action is one scripted disturbance or synchronization point. Flat and
// JSON-able so scripts can live in files.
type Action struct {
	Kind string `json:"kind"`

	Node string `json:"node,omitempty"`
	OSD  string `json:"osd,omitempty"`
	Site string `json:"site,omitempty"`

	LinkA       string        `json:"link_a,omitempty"`
	LinkB       string        `json:"link_b,omitempty"`
	CapacityBps float64       `json:"capacity_bps,omitempty"`
	Loss        float64       `json:"loss,omitempty"`
	Down        bool          `json:"down,omitempty"`
	Trace       []TracePoint  `json:"trace,omitempty"`
	Bytes       float64       `json:"bytes,omitempty"`
	MinElapsed  time.Duration `json:"min_elapsed,omitempty"`
	MaxElapsed  time.Duration `json:"max_elapsed,omitempty"`

	Count int `json:"count,omitempty"` // hold/panic executions
	Job   int `json:"job,omitempty"`   // workload index for await_*/kill_node
}

// TracePoint mirrors netsim.TracePoint with JSON-able fields.
type TracePoint struct {
	At          time.Duration `json:"at"`
	CapacityBps float64       `json:"capacity_bps,omitempty"`
	Loss        float64       `json:"loss,omitempty"`
	Down        *bool         `json:"down,omitempty"`
}

func (p TracePoint) netsim() netsim.TracePoint {
	var ch netsim.LinkChange
	if p.CapacityBps > 0 {
		ch.Capacity = &p.CapacityBps
	}
	if p.Loss > 0 {
		l := p.Loss
		ch.Loss = &l
	}
	if p.Down != nil {
		ch.Down = p.Down
	}
	return netsim.TracePoint{At: p.At, Change: ch}
}

// Script is one declarative scenario: a workload, an ordered event list, and
// a forward-progress deadline. Invariants are implicit — every script must
// end with all jobs succeeded, results bit-identical to an undisturbed run
// of the same workload, zero leaked pins/claims, and no stuck goroutines.
type Script struct {
	Name        string    `json:"name"`
	Description string    `json:"description"`
	Jobs        []JobSpec `json:"jobs"`
	Events      []Action  `json:"events"`
	// Deadline bounds the wall time from last event to quiescence (0 =
	// 60s). Virtual-time components (netsim transfers) are bounded by
	// their own event budgets inside RunTransfer.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// Builtin returns the standard fault matrix — the ≥6 distinct scripts CI
// runs under -race on every push.
func Builtin() []Script {
	return []Script{
		{
			Name:        "osd_loss_midpipeline",
			Description: "an OSD dies while an ivt job is writing its dataset; reads degrade to the surviving replica",
			Jobs:        []JobSpec{{Kind: "ivt", Deferred: true}, {Kind: "segment", Deferred: true}},
			Events: []Action{
				{Kind: ActHoldNext, Count: 1},
				{Kind: ActSubmit, Job: 0},
				{Kind: ActSubmit, Job: 1},
				{Kind: ActAwaitHold},
				{Kind: ActFailOSD, OSD: "osd-ucsd"},
				{Kind: ActRelease},
				{Kind: ActRecoverOSD, OSD: "osd-ucsd"},
			},
		},
		{
			Name:        "node_kill_midjob",
			Description: "the node running a job is killed; the job requeues onto the surviving replica holder bit-exactly",
			Jobs:        []JobSpec{{Kind: "segment", Deferred: true}},
			Events: []Action{
				{Kind: ActHoldNext, Count: 1},
				{Kind: ActSubmit, Job: 0},
				{Kind: ActAwaitHold},
				{Kind: ActKillNode, Job: 0}, // kill whatever node job 0 is on
				{Kind: ActRestoreNode},
			},
		},
		{
			Name:        "partition_heal",
			Description: "a site is partitioned from the fabric; jobs pinned there park and complete after heal",
			Jobs:        []JobSpec{{Kind: "segment", Site: "uci", Deferred: true}, {Kind: "segment"}},
			Events: []Action{
				{Kind: ActPartition, Site: "uci"},
				{Kind: ActSubmit, Job: 0},
				{Kind: ActAwaitParked, Job: 0},
				{Kind: ActHeal, Site: "uci"},
				{Kind: ActAwaitBound, Job: 0},
			},
		},
		{
			Name:        "wan_loss",
			Description: "50% loss on a WAN link halves its effective capacity; transfers stretch, results stay exact",
			Jobs:        []JobSpec{{Kind: "segment"}, {Kind: "ivt"}},
			Events: []Action{
				{Kind: ActSetLink, LinkA: "ucsd", LinkB: "uci", Loss: 0.5},
				// 10 Gbps nominal, 5 Gbps effective: 5e9 bytes take ≥ 8s
				// virtual where the clean link would take 4s.
				{Kind: ActTransfer, LinkA: "ucsd", LinkB: "uci", Bytes: 5e9,
					MinElapsed: 7 * time.Second},
				{Kind: ActSetLink, LinkA: "ucsd", LinkB: "uci", Loss: 0},
			},
		},
		{
			Name:        "bandwidth_collapse",
			Description: "a recorded trace collapses a link to 1% mid-transfer and restores it; virtual elapsed reflects the dip exactly",
			Jobs:        []JobSpec{{Kind: "segment"}},
			Events: []Action{
				{Kind: ActLinkTrace, LinkA: "ucsd", LinkB: "sdsu", Trace: []TracePoint{
					{At: 500 * time.Millisecond, CapacityBps: netsim.Gbps(40) / 100},
					{At: 2500 * time.Millisecond, CapacityBps: netsim.Gbps(40)},
				}},
				// 40 Gbps x 1s of bytes: clean ≈ 1s; through the collapse the
				// flow limps for 2s at 1%, finishing ≈ 2.98s + latency.
				{Kind: ActTransfer, LinkA: "ucsd", LinkB: "sdsu", Bytes: netsim.Gbps(40),
					MinElapsed: 2900 * time.Millisecond, MaxElapsed: 3100 * time.Millisecond},
			},
		},
		{
			Name:        "worker_panic",
			Description: "a worker panics mid-job twice; the transient-retry loop re-runs it to a bit-exact result",
			Jobs:        []JobSpec{{Kind: "segment", Deferred: true}, {Kind: "ivt", Deferred: true}},
			Events: []Action{
				{Kind: ActPanicNext, Count: 2},
				{Kind: ActSubmit, Job: 0},
				{Kind: ActSubmit, Job: 1},
			},
		},
		{
			Name:        "traindist_ckpt_resume",
			Description: "a training worker's node dies mid-epoch; the requeued run and a checkpoint-resumed follow-on stay bit-exact under OSD loss",
			Jobs: []JobSpec{
				{Kind: "train_dist", Deferred: true},
				{Kind: "train_dist", Deferred: true, ResumePrev: true},
			},
			Events: []Action{
				{Kind: ActHoldNext, Count: 1},
				{Kind: ActSubmit, Job: 0},
				{Kind: ActAwaitHold},
				{Kind: ActKillNode, Job: 0}, // kill the node training job 0
				{Kind: ActRestoreNode},
				{Kind: ActAwaitDone, Job: 0}, // requeued run writes the final checkpoint
				{Kind: ActHoldNext, Count: 1},
				{Kind: ActSubmit, Job: 1}, // resumes from job 0's checkpoint ref
				{Kind: ActAwaitHold},
				{Kind: ActFailOSD, OSD: "osd-ucsd"},
				{Kind: ActRelease}, // resume must read the checkpoint degraded
				{Kind: ActRecoverOSD, OSD: "osd-ucsd"},
			},
		},
		{
			Name:        "skew_cascade",
			Description: "slow-start cascade: latency and capacity degrade in steps across two links, then recover",
			Jobs:        []JobSpec{{Kind: "segment"}, {Kind: "segment"}},
			Events: []Action{
				{Kind: ActLinkTrace, LinkA: "ucsd", LinkB: "uci", Trace: []TracePoint{
					{At: 200 * time.Millisecond, CapacityBps: netsim.Gbps(10) / 4},
					{At: 1200 * time.Millisecond, CapacityBps: netsim.Gbps(10) / 20},
					{At: 2200 * time.Millisecond, CapacityBps: netsim.Gbps(10)},
				}},
				{Kind: ActSetLink, LinkA: "sdsu", LinkB: "uci", Loss: 0.25},
				{Kind: ActTransfer, LinkA: "ucsd", LinkB: "uci", Bytes: 2.5e9,
					MinElapsed: 2 * time.Second},
				{Kind: ActSetLink, LinkA: "sdsu", LinkB: "uci", Loss: 0},
			},
		},
	}
}

// Lookup returns the builtin script with the given name.
func Lookup(name string) (Script, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return Script{}, fmt.Errorf("scenario: unknown script %q", name)
}
