package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
)

// A workload is one closed-loop traffic mix. Every input it sends derives
// from the run's seed; the service sees only the generated requests.
type workload struct {
	name    string
	why     string
	cluster bool          // served by the cluster runner (else single-node)
	poll    time.Duration // status-poll cadence after the first, immediate poll
	perCore bool          // one client per core (else one client)
	warm    int           // warm-up operations per client, part of set-up
	// prepare runs once per set-up after the tenants are logged in (dataset
	// uploads, request bodies).
	prepare func(e *env) error
	// op runs the k-th operation of client ci and reports its units to out.
	op func(e *env, c *client, ci, k int, out *opOut)
	// probes measures the public functions this workload's handlers call,
	// on the workload's own inputs.
	probes func(e *env, p *probeSet)
}

const (
	wlCtlTiny = iota
	wlSegBurst
	wlConnectChain
	wlTrainDist
)

var workloads = []*workload{
	{
		name: "ctl_tiny",
		why:  "control plane does all the work (gateway, auth, admission, registry, fair queue, store, metrics), kernels ~0; nproc clients, 200us polls",
		poll: 200 * time.Microsecond, perCore: true, warm: 300,
		prepare: prepareCtlTiny, op: opCtlTiny, probes: probeCtlTiny,
	},
	{
		name: "seg_ref64_burst",
		why:  "data plane does the work and a real queue forms: bursts of 16 one-step segment jobs by ref over 8 uploaded 64^3 volumes on 4 workers; 1 client, 500us polls",
		poll: 500 * time.Microsecond, warm: 1,
		prepare: prepareSegBurst, op: opSegBurst, probes: probeSegBurst,
	},
	{
		name: "connect_chain", cluster: true,
		why:  "kernel-dominated paper spine on the cluster runner: ivt -> segment -> label chained by ref, each chain a true write then a cold read; 1 client, 1ms polls",
		poll: time.Millisecond, warm: 1,
		prepare: prepareConnectChain, op: opConnectChain, probes: probeConnectChain,
	},
	{
		name: "train_dist",
		why:  "the kernels used the other way: backward pass, gradient averaging, optimizer and checkpoint writes in 12 barrier rounds; 1 client, 2ms polls",
		poll: 2 * time.Millisecond, warm: 1,
		prepare: prepareTrainDist, op: opTrainDist, probes: probeTrainDist,
	},
}

// clients is the workload's client count: never more than the cores, so the
// load generator does not time-share with itself.
func (w *workload) clients(nproc int) int {
	if w.perCore {
		return nproc
	}
	return 1
}

func workloadByName(name string) (int, *workload) {
	for i, w := range workloads {
		if w.name == name {
			return i, w
		}
	}
	return -1, nil
}

// env is one workload's state over one set-up: the system under test, the
// inputs generated from the seed, and the verifier.
type env struct {
	w     *workload
	wl    uint8
	seed  uint64
	nproc int
	sut   *sut
	ver   *verifier

	// bodies are prebuilt request bodies: every body ctl_tiny and the burst
	// send, and a representative one for the workloads whose bodies differ
	// per operation. vols are the burst's uploaded volumes.
	bodies [][]byte
	vols   [][]float32
}

// opOut collects what one operation produced.
type opOut struct {
	lat      []time.Duration
	failed   int
	stepWall [3]time.Duration
	stepWire [3]int64
	chain    bool
}

func (o *opOut) reset() {
	o.lat = o.lat[:0]
	o.failed = 0
	o.chain = false
}

// mix derives an independent 64-bit stream value from the run seed
// (splitmix64 finalizer), so neighbouring seeds give unrelated inputs.
func mix(seed uint64, vals ...uint64) uint64 {
	x := seed
	for _, v := range vals {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs are plain data; cannot fail
	}
	return b
}

// --- ctl_tiny ---------------------------------------------------------------

func tinyRequest() *api.JobRequest {
	return &api.JobRequest{Kind: api.KindWorkflow, Workflow: &api.WorkflowSpec{
		Name:  "tiny",
		Steps: []api.WorkflowStep{{Name: "only", DurationMS: 1}},
	}}
}

func prepareCtlTiny(e *env) error {
	e.bodies = [][]byte{mustJSON(tinyRequest())}
	return nil
}

// metriczEvery is how often client 0 follows a job with GET /metricz.
const metriczEvery = 1000

func opCtlTiny(e *env, c *client, ci, k int, out *opOut) {
	// Tenant rotation starts at a seed-derived offset.
	token := e.sut.tokens[(int(mix(e.seed, 1)%4)+ci+k)%len(e.sut.tokens)]
	unit := uint32(k*e.w.clients(e.nproc) + ci)
	envl, lat, _, err := c.run(token, e.bodies[0], unit)
	if err == nil {
		err = e.ver.check(ci, k, 0, envl)
	}
	if err != nil {
		e.ver.fail(err)
		out.failed++
	} else {
		out.lat = append(out.lat, lat)
	}
	if ci == 0 && (k+1)%metriczEvery == 0 {
		if err := c.metricz(token); err != nil {
			e.ver.fail(err)
		}
	}
}

// --- seg_ref64_burst --------------------------------------------------------

const (
	segVolumes = 8
	segEdge    = 64
	segBurst   = 16
)

func prepareSegBurst(e *env) error {
	c := newClient(e.w.poll, e.wl)
	c.base = e.sut.plain.URL
	defer c.close()
	token := e.sut.tokens[0]
	e.bodies, e.vols = nil, nil
	for v := 0; v < segVolumes; v++ {
		rng := rand.New(rand.NewPCG(e.seed, mix(e.seed, 2, uint64(v))))
		data := make([]float32, segEdge*segEdge*segEdge)
		for i := range data {
			data[i] = rng.Float32()
		}
		enc, err := dataset.EncodeVolume(segEdge, segEdge, segEdge, data)
		if err != nil {
			return err
		}
		id := dataset.ID(enc)
		if err := c.putDataset(token, id, enc); err != nil {
			return err
		}
		e.vols = append(e.vols, data)
		e.bodies = append(e.bodies, mustJSON(segBurstRequest(id)))
	}
	return nil
}

func segBurstRequest(ref string) *api.JobRequest {
	return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source:     api.VolumeSource{Ref: ref},
		NetSeed:    3,
		Seeds:      [][3]int{{segEdge / 2, segEdge / 2, segEdge / 2}},
		MaxSteps:   1,
		ReturnMask: true,
	}}
}

func opSegBurst(e *env, c *client, ci, k int, out *opOut) {
	token := e.sut.tokens[0]
	// The burst cycles the volumes from a seed-derived starting point.
	first := int(mix(e.seed, 8) % segVolumes)
	var jobs [segBurst]*pending
	for j := range jobs {
		p, err := c.submit(token, e.bodies[(first+j)%segVolumes], uint32(k*segBurst+j))
		if err != nil {
			e.ver.fail(err)
			out.failed++
			continue
		}
		jobs[j] = p
	}
	for j, p := range jobs {
		if p == nil {
			continue
		}
		envl, lat, _, err := c.collect(p)
		if err == nil {
			err = e.ver.check(ci, k*segBurst+j, (first+j)%segVolumes, envl)
		}
		if err != nil {
			e.ver.fail(err)
			out.failed++
			continue
		}
		out.lat = append(out.lat, lat)
	}
}

// --- connect_chain ----------------------------------------------------------

// The chain's synthetic atmosphere and segmentation settings. The grid-seed
// threshold is 700: at 900 about one synthetic atmosphere in 800 has no
// lattice point above it, and a chain with no seed floods nothing.
const (
	chainNLon, chainNLat, chainNLev, chainSteps = 72, 48, 8, 12
	chainThreshold                              = 700
	chainNetSeed                                = 3
	// chainMaxObjects caps the label result's per-object list, so wire bytes
	// per chain do not swing with how many objects a chain happens to hold.
	chainMaxObjects = 4
)

func chainSynth(seed uint64, k int) api.SynthSpec {
	return api.SynthSpec{NLon: chainNLon, NLat: chainNLat, NLev: chainNLev, Steps: chainSteps,
		Seed: mix(seed, 3, uint64(k))}
}

func chainSegmentRequest(volumeRef string) *api.JobRequest {
	return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
		Segment: &api.SegmentSpec{
			Source:     api.VolumeSource{Ref: volumeRef},
			NetSeed:    chainNetSeed,
			Threshold:  chainThreshold,
			ReturnMask: true,
		}}
}

func prepareConnectChain(e *env) error {
	e.bodies = [][]byte{mustJSON(chainSegmentRequest(strings.Repeat("0", 64)))}
	return nil
}

func opConnectChain(e *env, c *client, ci, k int, out *opOut) {
	token := e.sut.tokens[int(mix(e.seed, 4)%4)]
	unit := uint32(k)
	out.chain = true
	start := time.Now()
	fail := func(err error) {
		e.ver.fail(fmt.Errorf("chain %d: %w", k, err))
		out.failed++
		out.chain = false
	}

	synth := chainSynth(e.seed, k)
	ivtBody := mustJSON(&api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef,
		IVT: &api.IVTSpec{Synth: synth}})
	envl, lat, wire, err := c.run(token, ivtBody, unit)
	var ivt api.IVTResult
	if err == nil {
		err = e.ver.structure(envl, &ivt)
	}
	if err != nil {
		fail(err)
		return
	}
	out.stepWall[0], out.stepWire[0] = lat, wire
	digest := newChainDigest(envl)

	envl, lat, wire, err = c.run(token, mustJSON(chainSegmentRequest(ivt.VolumeRef)), unit)
	var seg api.SegmentResult
	if err == nil {
		err = e.ver.structure(envl, &seg)
	}
	if err != nil {
		fail(err)
		return
	}
	out.stepWall[1], out.stepWire[1] = lat, wire
	digest.add(envl)

	labelBody := mustJSON(&api.JobRequest{Kind: api.KindLabel,
		Label: &api.LabelSpec{Source: api.VolumeSource{Ref: seg.MaskRef}, Threshold: 0.5, MaxObjects: chainMaxObjects}})
	envl, lat, wire, err = c.run(token, labelBody, unit)
	var lab api.LabelResult
	if err == nil {
		err = e.ver.structure(envl, &lab)
	}
	if err != nil {
		fail(err)
		return
	}
	out.stepWall[2], out.stepWire[2] = lat, wire
	digest.add(envl)
	if err := e.ver.golden(ci, k, digest.sum()); err != nil {
		fail(err)
		return
	}
	out.lat = append(out.lat, time.Since(start))
}

// --- train_dist -------------------------------------------------------------

var trainNet = api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, MoveStep: [3]int{1, 2, 2}}

const (
	trainNLon, trainNLat, trainNLev, trainSteps = 36, 24, 4, 6
	trainThreshold                              = 130
	trainRounds                                 = 12
	trainBatch                                  = 16
	trainCheckpointEvery                        = 4
	trainNetSeed                                = 7
	trainLR, trainMomentum                      = 0.05, 0.9
)

func trainSynth(seed uint64) api.SynthSpec {
	return api.SynthSpec{NLon: trainNLon, NLat: trainNLat, NLev: trainNLev, Steps: trainSteps,
		Seed: mix(seed, 5)}
}

func trainRequest(seed uint64, nproc, k int) *api.JobRequest {
	synth := trainSynth(seed)
	net := trainNet
	return &api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
		Source:          api.VolumeSource{Synth: &synth},
		Threshold:       trainThreshold,
		Workers:         nproc,
		Rounds:          trainRounds,
		BatchPerRound:   trainBatch,
		LR:              trainLR,
		Momentum:        trainMomentum,
		Net:             &net,
		NetSeed:         trainNetSeed,
		SampleSeed:      mix(seed, 6, uint64(k)),
		CheckpointEvery: trainCheckpointEvery,
	}}
}

func prepareTrainDist(e *env) error {
	e.bodies = [][]byte{mustJSON(trainRequest(e.seed, e.nproc, 0))}
	return nil
}

func opTrainDist(e *env, c *client, ci, k int, out *opOut) {
	token := e.sut.tokens[int(mix(e.seed, 7)%4)]
	envl, lat, _, err := c.run(token, mustJSON(trainRequest(e.seed, e.nproc, k)), uint32(k))
	if err == nil {
		err = e.ver.check(ci, k, -1, envl)
	}
	if err != nil {
		e.ver.fail(err)
		out.failed++
		return
	}
	out.lat = append(out.lat, lat)
}
