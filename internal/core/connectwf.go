package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/gpusim"
	"chaseci/internal/merra"
	"chaseci/internal/metrics"
	"chaseci/internal/netsim"
	"chaseci/internal/workflow"
)

// ConnectConfig parameterizes the Section III case study. The defaults
// reproduce the paper's runs exactly; benches vary individual fields
// (worker counts, GPU counts, subsetting) for the scaling and ablation
// experiments.
type ConnectConfig struct {
	Namespace string
	// Archive is the granule catalog to move (use merra.MERRA2() for the
	// paper's full run, .Slice(n) for scaled runs).
	Archive merra.ArchiveSpec
	// Subset selects the THREDDS single-variable subset (246 GB) instead of
	// whole granules (455 GB).
	Subset bool
	// DownloadWorkers is the number of queue-consuming pods (paper: 10).
	DownloadWorkers int
	// ParallelStreams is aria2's concurrent download count per worker
	// (paper: 20).
	ParallelStreams int
	// URLsPerMessage is how many granule URLs each Redis message carries.
	URLsPerMessage int
	// InferenceGPUs is the pod/GPU count of step 3 (paper: 50).
	InferenceGPUs int
	// GPU is the accelerator timing model.
	GPU gpusim.Model
	// TrainVoxels / InferVoxels are the modeled workload sizes; zero means
	// derive from the paper's constants scaled by the archive slice.
	TrainVoxels float64
	InferVoxels float64
	// MergeBytesPerSec is each worker's NetCDF->HDF merge throughput.
	MergeBytesPerSec float64
	// SampleEvery is the Grafana scrape interval for figure series.
	SampleEvery time.Duration
	// Real enables the real-compute path (FFN + CONNECT on synthetic IVT at
	// the configured grid scale) alongside the virtual-time run.
	Real *RealComputeConfig
}

// RealComputeConfig sizes the real FFN/CONNECT computation embedded in the
// workflow.
type RealComputeConfig struct {
	Grid       merra.Grid
	Seed       uint64 // the scene generator's, and the network's and the sampler's
	TrainSteps int    // train_dist rounds, 8 examples each
	TimeSteps  int    // IVT volume depth (the paper's "240 3-hourly images")
	Quantile   float64
}

// DefaultRealCompute returns a laptop-scale real-compute setup.
func DefaultRealCompute() *RealComputeConfig {
	return &RealComputeConfig{
		Grid:       merra.Grid{NLon: 36, NLat: 24, NLev: 6},
		Seed:       11,
		TrainSteps: 300,
		TimeSteps:  6,
		Quantile:   0.90,
	}
}

// PaperConnectConfig returns the exact configuration of the paper's run.
func PaperConnectConfig() ConnectConfig {
	w := gpusim.Paper()
	return ConnectConfig{
		Namespace:       "connect",
		Archive:         merra.MERRA2(),
		Subset:          true,
		DownloadWorkers: 10,
		ParallelStreams: 20,
		URLsPerMessage:  250,
		InferenceGPUs:   w.InferGPUs,
		GPU:             gpusim.GTX1080Ti(),
		// TrainVoxels/InferVoxels left zero: defaults() derives them from
		// the paper constants, scaling inference with any archive slice.
		MergeBytesPerSec: 500e6,
		SampleEvery:      30 * time.Second,
	}
}

func (c *ConnectConfig) defaults() {
	if c.Namespace == "" {
		c.Namespace = "connect"
	}
	if c.DownloadWorkers <= 0 {
		c.DownloadWorkers = 10
	}
	if c.ParallelStreams <= 0 {
		c.ParallelStreams = 20
	}
	if c.URLsPerMessage <= 0 {
		c.URLsPerMessage = 250
	}
	if c.InferenceGPUs <= 0 {
		c.InferenceGPUs = 50
	}
	if c.GPU.InferVoxelsPerSec == 0 {
		c.GPU = gpusim.GTX1080Ti()
	}
	if c.MergeBytesPerSec <= 0 {
		c.MergeBytesPerSec = 500e6
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 30 * time.Second
	}
	w := gpusim.Paper()
	frac := float64(c.Archive.NumFiles()) / float64(merra.MERRA2().NumFiles())
	if c.TrainVoxels == 0 {
		c.TrainVoxels = w.TrainVoxels // training volume is fixed (30 days)
	}
	if c.InferVoxels == 0 {
		c.InferVoxels = w.InferVoxels * frac
	}
}

// ConnectRun is a handle on one execution of the case-study workflow.
type ConnectRun struct {
	Workflow *workflow.Workflow
	Eco      *Ecosystem
	Config   ConnectConfig

	// BytesDownloaded counts payload bytes landed by step 1.
	BytesDownloaded *metrics.Counter
	// Real-compute artifacts (nil unless Config.Real was set).
	RealResult *RealResult

	dlCurrentMsg map[uint64]string // pod UID -> in-flight queue message
}

// RealResult carries the real-compute outputs of a run (RunSegmentation).
type RealResult struct {
	// CheckpointRef and MaskRef name the trained model and the segmentation
	// mask in the dataset store the jobs ran against.
	CheckpointRef, MaskRef string
	TrainLossHead          float64
	TrainLossTail          float64
	Precision              float64
	Recall                 float64
	IoU                    float64
	FFNObjects             int
	CONNObjects            int
	ReportText             string
	OverlayPPM             []byte // the mask over the field at t=0
}

const queueKey = "connect:urls"

// NewConnectWorkflow assembles the 4-step workflow on an ecosystem. The
// returned run's Workflow must be driven by the ecosystem clock; use
// Execute for the common run-to-completion case.
func (e *Ecosystem) NewConnectWorkflow(cfg ConnectConfig) (*ConnectRun, error) {
	cfg.defaults()
	if _, err := e.Cluster.CreateNamespace(cfg.Namespace, nil); err != nil && err != cluster.ErrDuplicate {
		return nil, err
	}
	run := &ConnectRun{
		Eco: e, Config: cfg,
		BytesDownloaded: e.Metrics.Counter("connect_bytes_downloaded", nil),
		dlCurrentMsg:    make(map[uint64]string),
	}
	wf := workflow.New("connect-segmentation", e.Clock)
	run.Workflow = wf

	wf.AddStep(workflow.StepSpec{
		Name: "1-download",
		Run:  run.stepDownload,
	})
	wf.AddStep(workflow.StepSpec{
		Name: "2-train", DependsOn: []string{"1-download"},
		Run: run.stepTrain,
	})
	wf.AddStep(workflow.StepSpec{
		Name: "3-inference", DependsOn: []string{"2-train"},
		Run: run.stepInference,
	})
	wf.AddStep(workflow.StepSpec{
		Name: "4-visualize", DependsOn: []string{"3-inference"},
		Run: run.stepVisualize,
	})

	// Re-queue in-flight download messages when a worker's node is lost, so
	// the workflow is exactly-once per message even under failures.
	e.Cluster.OnPodPhase(func(p *cluster.Pod) {
		if p.Phase == cluster.PodFailed && p.Reason == "NodeLost" {
			if msg, ok := run.dlCurrentMsg[p.UID]; ok {
				delete(run.dlCurrentMsg, p.UID)
				e.Queue.LPush(queueKey, msg)
			}
		}
	})
	return run, nil
}

// Execute runs the workflow to completion in virtual time and returns the
// measured report. It fails if any step failed.
func (run *ConnectRun) Execute() (workflow.Report, error) {
	if err := run.Workflow.Run(nil); err != nil {
		return workflow.Report{}, err
	}
	run.Eco.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
	if run.Workflow.Failed() {
		return run.Workflow.Report(), fmt.Errorf("core: workflow failed")
	}
	return run.Workflow.Report(), nil
}

// --- Step 1: THREDDS download ----------------------------------------------

// perFileBytes returns the modeled size of one fetched granule.
func (run *ConnectRun) perFileBytes() float64 {
	if run.Config.Subset {
		return run.Config.Archive.SubsetFileBytes
	}
	return run.Config.Archive.FullFileBytes
}

func (run *ConnectRun) stepDownload(ctx *workflow.Ctx) {
	e := run.Eco
	cfg := run.Config
	files := cfg.Archive.NumFiles()
	totalBytes := run.perFileBytes() * float64(files)

	// Populate the Redis queue: messages of the form "msg-<i>:<nfiles>",
	// each standing for a list file of URLs, exactly the paper's structure.
	nMsgs := (files + cfg.URLsPerMessage - 1) / cfg.URLsPerMessage
	for i := 0; i < nMsgs; i++ {
		n := cfg.URLsPerMessage
		if i == nMsgs-1 {
			n = files - i*cfg.URLsPerMessage
		}
		e.Queue.LPush(queueKey, fmt.Sprintf("msg-%d:%d", i, n))
	}

	// Table I row: 14 pods / 42 CPUs / 225 GB — 10 workers (3 CPU, 16 GB),
	// 3 download-handler images (4 CPU, 21 GB), 1 Redis pod (0 CPU, 2 GB).
	ctx.Record("pods", float64(cfg.DownloadWorkers+4))
	ctx.Record("cpus", float64(cfg.DownloadWorkers*3+12))
	ctx.Record("gpus", 0)
	ctx.Record("data_bytes", totalBytes)
	ctx.Record("memory_bytes", float64(cfg.DownloadWorkers)*16e9+3*21e9+2e9)

	// Grafana sampling of the download (Figures 3 and 4).
	rateGauge := e.Metrics.Gauge("connect_download_rate_bytes", nil)
	tick := e.Clock.Every(cfg.SampleEvery, func() {
		sum := 0.0
		for _, s := range sites {
			sum += e.Net.AggregateRate(s.name)
		}
		rateGauge.Set(sum)
	})

	// Auxiliary pods: Redis + 3 handler images.
	aux, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "download-aux", Namespace: cfg.Namespace,
		Parallelism: 4,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 3, Memory: 16.25e9},
			Run:      func(pc *cluster.PodCtx) { /* long-running; deleted with the job */ },
		},
	})
	if err != nil {
		tick.Stop()
		ctx.Done(err)
		return
	}

	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "download-worker", Namespace: cfg.Namespace,
		Parallelism: cfg.DownloadWorkers,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 3, Memory: 16e9},
			Labels:   map[string]string{"app": "download"},
			Run:      func(pc *cluster.PodCtx) { run.downloadWorker(pc) },
		},
	})
	if err != nil {
		tick.Stop()
		ctx.Done(err)
		return
	}
	job.OnComplete(func(ok bool) {
		tick.Stop()
		rateGauge.Set(0)
		// Tear down the long-running aux pods.
		for _, p := range aux.Pods() {
			e.Cluster.DeletePod(p)
		}
		if !ok {
			ctx.Done(fmt.Errorf("download job failed"))
			return
		}
		// Real-compute path: land actual IVT subset bytes for the first few
		// granules in Ceph, demonstrating the data plane end to end.
		if cfg.Real != nil {
			run.landRealGranules()
		}
		ctx.Done(nil)
	})
}

// downloadWorker is the per-pod state machine: pop a message, fetch its
// URLs with bounded parallel streams, merge to HDF, store to Ceph, repeat.
func (run *ConnectRun) downloadWorker(pc *cluster.PodCtx) {
	e := run.Eco
	cfg := run.Config
	node := e.Cluster.Node(pc.NodeName())
	site := node.Site
	podLabel := metrics.Labels{"pod": fmt.Sprintf("download-%d", pc.Index())}
	cpuGauge := e.Metrics.Gauge("connect_worker_cpu", podLabel)
	memGauge := e.Metrics.Gauge("connect_worker_mem_bytes", podLabel)

	var processMsg func()
	processMsg = func() {
		if !pc.Alive() {
			return
		}
		msg, ok := e.Queue.RPop(queueKey)
		if !ok {
			cpuGauge.Set(0)
			memGauge.Set(0)
			delete(run.dlCurrentMsg, pc.Pod().UID)
			pc.Succeed()
			return
		}
		run.dlCurrentMsg[pc.Pod().UID] = msg
		nFiles := parseMsgCount(msg)
		perFile := run.perFileBytes()
		streams := min(cfg.ParallelStreams, nFiles)
		cpuGauge.Set(2.6) // aria2 + unpacking keeps ~2.6 of 3 cores busy
		memGauge.Set(4e9 + perFile*float64(streams))

		// Each aria2 stream pulls its share of the message's files
		// back-to-back; one fluid flow per stream carries that share. This
		// preserves the fair-sharing dynamics (workers x streams concurrent
		// flows) at stream granularity.
		inFlight := streams
		var flows []*netsim.Flow
		onStreamDone := func(streamBytes float64) func() {
			return func() {
				if !pc.Alive() {
					for _, f := range flows {
						f.Cancel()
					}
					return
				}
				run.BytesDownloaded.Add(streamBytes)
				inFlight--
				if inFlight > 0 {
					return
				}
				// All streams landed: merge into an HDF aggregate, store it.
				msgBytes := perFile * float64(nFiles)
				mergeTime := time.Duration(msgBytes / cfg.MergeBytesPerSec * float64(time.Second))
				cpuGauge.Set(3.0) // merge is CPU-saturated
				pc.After(mergeTime, func() {
					key := fmt.Sprintf("merged/%s.h5", strings.ReplaceAll(msg, ":", "-"))
					if _, err := e.Storage.Put("connect-data", key, msgBytes, nil); err != nil {
						pc.Fail(err.Error())
						return
					}
					delete(run.dlCurrentMsg, pc.Pod().UID)
					cpuGauge.Set(2.6)
					processMsg()
				})
			}
		}
		base := nFiles / streams
		extra := nFiles % streams
		for s := 0; s < streams; s++ {
			cnt := base
			if s < extra {
				cnt++
			}
			bytes := perFile * float64(cnt)
			flows = append(flows, e.Net.Transfer(threddsSite, site, bytes, onStreamDone(bytes)))
		}
	}
	processMsg()
}

func parseMsgCount(msg string) int {
	if i := strings.LastIndexByte(msg, ':'); i >= 0 {
		if n, err := strconv.Atoi(msg[i+1:]); err == nil {
			return n
		}
	}
	return 1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Step 2: model training -------------------------------------------------

func (run *ConnectRun) stepTrain(ctx *workflow.Ctx) {
	e := run.Eco
	cfg := run.Config
	// Table I row: 1 pod, 1 CPU, 1 GPU, 381 MB data, 14.8 GB memory.
	ctx.Record("pods", 1)
	ctx.Record("cpus", 1)
	ctx.Record("gpus", 1)
	ctx.Record("data_bytes", 381e6)
	ctx.Record("memory_bytes", 14.8e9)

	phase := e.Metrics.Gauge("connect_train_phase", nil) // 1 = prep, 2 = train
	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "ffn-train", Namespace: cfg.Namespace,
		Parallelism: 1,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 14.8e9, GPUs: 1},
			Labels:   map[string]string{"app": "train"},
			Run: func(pc *cluster.PodCtx) {
				// Phase 1: data preparation (NetCDF -> protobuf), Fig 5 purple.
				phase.Set(1)
				pc.After(cfg.GPU.PrepTime(cfg.TrainVoxels), func() {
					// Phase 2: FFN optimization, Fig 5 green.
					phase.Set(2)
					pc.After(cfg.GPU.TrainTime(cfg.TrainVoxels), func() {
						phase.Set(0)
						pc.Succeed()
					})
				})
			},
		},
	})
	if err != nil {
		ctx.Done(err)
		return
	}
	job.OnComplete(func(ok bool) {
		if !ok {
			ctx.Done(fmt.Errorf("training job failed"))
			return
		}
		// Store the model artifact (weights + config) in Ceph.
		if _, err := e.Storage.Put("connect-models", "ffn-model.bin", 10e6, nil); err != nil {
			ctx.Done(err)
			return
		}
		ctx.Done(nil)
	})
}

// --- Step 3: distributed inference ------------------------------------------

func (run *ConnectRun) stepInference(ctx *workflow.Ctx) {
	e := run.Eco
	cfg := run.Config
	gpus := cfg.InferenceGPUs
	totalBytes := run.perFileBytes() * float64(cfg.Archive.NumFiles())
	// Results are sparse object masks: the paper's step 4 reads 5.8 GB out
	// of 246 GB of inputs, a ~2.4% output ratio.
	const resultRatio = 5.8 / 246

	ctx.Record("pods", float64(gpus))
	ctx.Record("cpus", float64(gpus))
	ctx.Record("gpus", float64(gpus))
	ctx.Record("data_bytes", totalBytes)
	ctx.Record("memory_bytes", float64(gpus)*12e9)

	shardVoxels := cfg.InferVoxels / float64(gpus)
	shardBytes := totalBytes / float64(gpus)

	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "ffn-infer", Namespace: cfg.Namespace,
		Parallelism: gpus,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 12e9, GPUs: 1},
			Labels:   map[string]string{"app": "infer"},
			Run: func(pc *cluster.PodCtx) {
				node := e.Cluster.Node(pc.NodeName())
				// Read the shard from Ceph over the WAN, then run the GPU.
				srcSite := node.Site
				if s, ok := e.Storage.PrimarySite("connect-data", firstKey(e.Storage.List("connect-data"))); ok {
					srcSite = s
				}
				idx := pc.Index()
				e.Net.Transfer(srcSite, node.Site, shardBytes, func() {
					if !pc.Alive() {
						return
					}
					pc.After(cfg.GPU.InferTime(shardVoxels), func() {
						key := fmt.Sprintf("results/shard-%03d.bin", idx)
						if _, err := e.Storage.Put("connect-results", key, shardBytes*resultRatio, nil); err != nil {
							pc.Fail(err.Error())
							return
						}
						pc.Succeed()
					})
				})
			},
		},
	})
	if err != nil {
		ctx.Done(err)
		return
	}
	job.OnComplete(func(ok bool) {
		if !ok {
			ctx.Done(fmt.Errorf("inference job failed"))
			return
		}
		ctx.Done(nil)
	})
}

func firstKey(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// --- Step 4: JupyterLab visualization ----------------------------------------

func (run *ConnectRun) stepVisualize(ctx *workflow.Ctx) {
	e := run.Eco
	cfg := run.Config
	resultBytes := e.Storage.BucketSize("connect-results")
	ctx.Record("pods", 1)
	ctx.Record("cpus", 1)
	ctx.Record("gpus", 1)
	ctx.Record("data_bytes", resultBytes)
	ctx.Record("memory_bytes", 12e9)

	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "jupyterlab", Namespace: cfg.Namespace,
		Parallelism: 1,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 12e9, GPUs: 1},
			Labels:   map[string]string{"app": "viz"},
			Run: func(pc *cluster.PodCtx) {
				node := e.Cluster.Node(pc.NodeName())
				// Mount Ceph and read the results into the notebook.
				srcSite := node.Site
				if s, ok := e.Storage.PrimarySite("connect-results", firstKey(e.Storage.List("connect-results"))); ok {
					srcSite = s
				}
				e.Net.Transfer(srcSite, node.Site, resultBytes, func() {
					if pc.Alive() {
						pc.Succeed()
					}
				})
			},
		},
	})
	if err != nil {
		ctx.Done(err)
		return
	}
	job.OnComplete(func(ok bool) {
		if !ok {
			ctx.Done(fmt.Errorf("visualization pod failed"))
			return
		}
		// Real-compute path: steps 2-4 again, for real, as chased/v1 jobs.
		if cfg.Real != nil {
			if err := run.realCompute(); err != nil {
				ctx.Done(err)
				return
			}
		}
		ctx.Done(nil)
	})
}
