package core

import (
	"fmt"
	"slices"
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

// The paper's deployment of the case study (Section III, Table I). The
// runs vary only what ConnectConfig holds.
const (
	namespace        = "connect"
	queueKey         = "connect:urls"   // the Redis list of URL messages
	DownloadWorkers  = 10               // queue-consuming download pods
	parallelStreams  = 20               // aria2 concurrent downloads per worker
	urlsPerMessage   = 250              // granule URLs per Redis message
	mergeBytesPerSec = 500e6            // each worker's NetCDF->HDF merge
	sampleEvery      = 30 * time.Second // Grafana scrape interval for the figures
)

// paper sizes the training and inference work and its GPU count; gpu times it.
var (
	paper = gpusim.Paper()
	gpu   = gpusim.GTX1080Ti()
)

// ConnectConfig is what the Section III case-study runs vary: the archive
// slice, subsetting, and whether the real compute rides along.
type ConnectConfig struct {
	// Archive is the granule catalog to move (use merra.MERRA2() for the
	// paper's full run, .Slice(n) for scaled runs). Inference volume scales
	// with the slice; training volume is fixed (30 days).
	Archive merra.ArchiveSpec
	// Subset selects the THREDDS single-variable subset (246 GB) instead of
	// whole granules (455 GB).
	Subset bool
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
	return ConnectConfig{Archive: merra.MERRA2(), Subset: true}
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
	CheckpointRef, MaskRef       string
	TrainLossHead, TrainLossTail float64
	Precision, Recall, IoU       float64
	FFNObjects, CONNObjects      int
	ReportText                   string
	OverlayPPM                   []byte // the mask over the field at t=0
}

// NewConnectWorkflow assembles the 4-step workflow on an ecosystem. The
// returned run's Workflow must be driven by the ecosystem clock; use
// Execute for the common run-to-completion case.
func (e *Ecosystem) NewConnectWorkflow(cfg ConnectConfig) (*ConnectRun, error) {
	if _, err := e.Cluster.CreateNamespace(namespace, nil); err != nil && err != cluster.ErrDuplicate {
		return nil, err
	}
	run := &ConnectRun{
		Eco: e, Config: cfg,
		BytesDownloaded: e.Metrics.Counter("connect_bytes_downloaded", nil),
		dlCurrentMsg:    make(map[uint64]string),
	}
	run.Workflow = workflow.New("connect-segmentation", e.Clock)
	var prev []string // each step depends on the one before it (Fig 2)
	for _, s := range []workflow.StepSpec{
		{Name: "1-download", Run: run.stepDownload},
		{Name: "2-train", Run: run.stepTrain},
		{Name: "3-inference", Run: run.stepInference},
		{Name: "4-visualize", Run: run.stepVisualize},
	} {
		s.DependsOn, prev = prev, []string{s.Name}
		run.Workflow.AddStep(s)
	}

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
// measured report. It fails with Err if any step failed.
func (run *ConnectRun) Execute() (workflow.Report, error) {
	if err := run.Workflow.Run(nil); err != nil {
		return workflow.Report{}, err
	}
	run.Eco.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
	return run.Workflow.Report(), run.Err()
}

// Err returns the first failed step's error, naming the step, or nil.
func (run *ConnectRun) Err() error {
	for _, s := range run.Workflow.Report().Steps {
		if s.Status == workflow.StatusFailed {
			return fmt.Errorf("core: workflow failed: step %s: %w", s.Name, s.Err)
		}
	}
	return nil
}

// jobStep runs one step as Kubernetes jobs. It records the step's Table I
// row — pods, cpus, gpus and memory_bytes are Σ parallelism × requests over
// the jobs; data_bytes is the caller's — creates the jobs in order, and ends
// the step when the last one completes, deleting the pods of the jobs before
// it (long-running companions). finish, if not nil, runs once with the
// step's failure so far (nil on success), and what it returns ends the step.
func (run *ConnectRun) jobStep(ctx *workflow.Ctx, dataBytes float64, finish func(err error) error, specs ...cluster.JobSpec) {
	var pods, cpus, gpus, mem float64
	for _, s := range specs {
		n := float64(s.Parallelism)
		pods += n
		cpus += n * s.Template.Requests.CPU
		gpus += n * float64(s.Template.Requests.GPUs)
		mem += n * s.Template.Requests.Memory
	}
	ctx.Record("pods", pods)
	ctx.Record("cpus", cpus)
	ctx.Record("gpus", gpus)
	ctx.Record("data_bytes", dataBytes)
	ctx.Record("memory_bytes", mem)

	var jobs []*cluster.Job
	end := func(err error) {
		for _, j := range jobs {
			for _, p := range j.Pods() {
				run.Eco.Cluster.DeletePod(p) // a no-op once the pod has ended
			}
		}
		if finish != nil {
			err = finish(err)
		}
		ctx.Done(err)
	}
	for _, s := range specs {
		s.Namespace = namespace
		j, err := run.Eco.Cluster.CreateJob(s)
		if err != nil {
			end(err)
			return
		}
		jobs = append(jobs, j)
	}
	last := jobs[len(jobs)-1]
	last.OnComplete(func(ok bool) {
		var err error
		if !ok {
			err = jobError(last)
		}
		end(err)
	})
}

// jobError names a failed job and the reason its last charged pod gave.
func jobError(j *cluster.Job) error {
	for _, p := range slices.Backward(j.Pods()) {
		if p.Phase == cluster.PodFailed && p.Reason != "Deleted" && p.Reason != "NodeLost" {
			return fmt.Errorf("job %s failed: pod %s: %s", j.Spec.Name, p.Name(), p.Reason)
		}
	}
	return fmt.Errorf("job %s failed", j.Spec.Name)
}

// sourceSite is where a pod at site reads bucket from: the primary site of
// the bucket's first object, else its own.
func (run *ConnectRun) sourceSite(bucket, site string) string {
	if keys := run.Eco.Storage.List(bucket); len(keys) > 0 {
		if s, ok := run.Eco.Storage.PrimarySite(bucket, keys[0]); ok {
			return s
		}
	}
	return site
}

// --- Step 1: THREDDS download ----------------------------------------------

func (run *ConnectRun) stepDownload(ctx *workflow.Ctx) {
	e := run.Eco
	files := run.Config.Archive.NumFiles()

	// Populate the Redis queue: messages of the form "msg-<i>:<nfiles>",
	// each standing for a list file of URLs, exactly the paper's structure.
	for i := 0; i*urlsPerMessage < files; i++ {
		e.Queue.LPush(queueKey, fmt.Sprintf("msg-%d:%d", i, min(urlsPerMessage, files-i*urlsPerMessage)))
	}

	// Grafana sampling of the download (Figures 3 and 4).
	rateGauge := e.Metrics.Gauge("connect_download_rate_bytes", nil)
	tick := e.Clock.Every(sampleEvery, func() {
		sum := 0.0
		for _, s := range sites {
			sum += e.Net.AggregateRate(s.name)
		}
		rateGauge.Set(sum)
	})

	// Table I: 14 pods, 42 CPUs, 225 GB — the long-running auxiliaries
	// (Redis + 3 download-handler images) and the workers.
	run.jobStep(ctx, run.Config.Archive.TotalBytes(run.Config.Subset), func(err error) error {
		tick.Stop()
		rateGauge.Set(0)
		// Real-compute path: land actual IVT subset bytes for the first few
		// granules in Ceph, demonstrating the data plane end to end.
		if err == nil && run.Config.Real != nil {
			err = run.landRealGranules()
		}
		return err
	}, cluster.JobSpec{
		Name: "download-aux", Parallelism: 4,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 3, Memory: 16.25e9},
			Run:      func(pc *cluster.PodCtx) { /* long-running; jobStep deletes them */ },
		},
	}, cluster.JobSpec{
		Name: "download-worker", Parallelism: DownloadWorkers,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 3, Memory: 16e9},
			Labels:   map[string]string{"app": "download"},
			Run:      run.downloadWorker,
		},
	})
}

// downloadWorker is the per-pod state machine: pop a message, fetch its
// URLs with bounded parallel streams, merge to HDF, store to Ceph, repeat.
func (run *ConnectRun) downloadWorker(pc *cluster.PodCtx) {
	e := run.Eco
	site := e.Cluster.Node(pc.NodeName()).Site
	perFile := run.Config.Archive.FullFileBytes
	if run.Config.Subset {
		perFile = run.Config.Archive.SubsetFileBytes
	}
	cpuGauge := e.Metrics.Gauge("connect_worker_cpu", metrics.Labels{"pod": fmt.Sprintf("download-%d", pc.Index())})

	var processMsg func()
	processMsg = func() {
		if !pc.Alive() {
			return
		}
		msg, ok := e.Queue.RPop(queueKey)
		if !ok {
			cpuGauge.Set(0)
			delete(run.dlCurrentMsg, pc.Pod().UID)
			pc.Succeed()
			return
		}
		run.dlCurrentMsg[pc.Pod().UID] = msg
		nFiles, _ := strconv.Atoi(msg[strings.LastIndexByte(msg, ':')+1:])
		streams := min(parallelStreams, nFiles)
		cpuGauge.Set(2.6) // aria2 + unpacking keeps ~2.6 of 3 cores busy

		// Each aria2 stream pulls its share of the message's files
		// back-to-back; one fluid flow per stream carries that share. This
		// preserves the fair-sharing dynamics (workers x streams concurrent
		// flows) at stream granularity.
		inFlight := streams
		var flows []*netsim.Flow
		for s := range streams {
			cnt := nFiles / streams
			if s < nFiles%streams {
				cnt++
			}
			bytes := perFile * float64(cnt)
			flows = append(flows, e.Net.Transfer(threddsSite, site, bytes, func() {
				if !pc.Alive() {
					for _, f := range flows {
						f.Cancel()
					}
					return
				}
				run.BytesDownloaded.Add(bytes)
				if inFlight--; inFlight > 0 {
					return
				}
				// All streams landed: merge into an HDF aggregate, store it.
				msgBytes := perFile * float64(nFiles)
				cpuGauge.Set(3.0) // merge is CPU-saturated
				pc.After(time.Duration(msgBytes/mergeBytesPerSec*float64(time.Second)), func() {
					key := fmt.Sprintf("merged/%s.h5", strings.ReplaceAll(msg, ":", "-"))
					if _, err := e.Storage.Put("connect-data", key, msgBytes, nil); err != nil {
						pc.Fail(err.Error())
						return
					}
					delete(run.dlCurrentMsg, pc.Pod().UID)
					cpuGauge.Set(2.6)
					processMsg()
				})
			}))
		}
	}
	processMsg()
}

// --- Step 2: model training -------------------------------------------------

func (run *ConnectRun) stepTrain(ctx *workflow.Ctx) {
	e := run.Eco
	phase := e.Metrics.Gauge("connect_train_phase", nil) // 1 = prep, 2 = train
	// Table I: 1 pod, 1 CPU, 1 GPU, 381 MB data, 14.8 GB memory.
	run.jobStep(ctx, 381e6, func(err error) error {
		if err == nil {
			// Store the model artifact (weights + config) in Ceph.
			_, err = e.Storage.Put("connect-models", "ffn-model.bin", 10e6, nil)
		}
		return err
	}, cluster.JobSpec{
		Name: "ffn-train", Parallelism: 1,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 14.8e9, GPUs: 1},
			Labels:   map[string]string{"app": "train"},
			Run: func(pc *cluster.PodCtx) {
				// Phase 1: data preparation (NetCDF -> protobuf), Fig 5 purple.
				phase.Set(1)
				pc.After(gpu.PrepTime(paper.TrainVoxels), func() {
					// Phase 2: FFN optimization, Fig 5 green.
					phase.Set(2)
					pc.After(gpu.TrainTime(paper.TrainVoxels), func() {
						phase.Set(0)
						pc.Succeed()
					})
				})
			},
		},
	})
}

// --- Step 3: distributed inference ------------------------------------------

func (run *ConnectRun) stepInference(ctx *workflow.Ctx) {
	e := run.Eco
	totalBytes := run.Config.Archive.TotalBytes(run.Config.Subset)
	// Results are sparse object masks: the paper's step 4 reads 5.8 GB out
	// of 246 GB of inputs, a ~2.4% output ratio.
	const resultRatio = 5.8 / 246
	frac := float64(run.Config.Archive.NumFiles()) / float64(merra.MERRA2().NumFiles())
	shardVoxels := paper.InferVoxels * frac / float64(paper.InferGPUs)
	shardBytes := totalBytes / float64(paper.InferGPUs)

	run.jobStep(ctx, totalBytes, nil, cluster.JobSpec{
		Name: "ffn-infer", Parallelism: paper.InferGPUs,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 12e9, GPUs: 1},
			Labels:   map[string]string{"app": "infer"},
			Run: func(pc *cluster.PodCtx) {
				// Read the shard from Ceph over the WAN, then run the GPU.
				site := e.Cluster.Node(pc.NodeName()).Site
				e.Net.Transfer(run.sourceSite("connect-data", site), site, shardBytes, func() {
					if !pc.Alive() {
						return
					}
					pc.After(gpu.InferTime(shardVoxels), func() {
						key := fmt.Sprintf("results/shard-%03d.bin", pc.Index())
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
}

// --- Step 4: JupyterLab visualization ----------------------------------------

func (run *ConnectRun) stepVisualize(ctx *workflow.Ctx) {
	e := run.Eco
	resultBytes := e.Storage.BucketSize("connect-results")
	run.jobStep(ctx, resultBytes, func(err error) error {
		// Real-compute path: steps 2-4 again, for real, as chased/v1 jobs.
		if err == nil && run.Config.Real != nil {
			err = run.realCompute()
		}
		return err
	}, cluster.JobSpec{
		Name: "jupyterlab", Parallelism: 1,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 1, Memory: 12e9, GPUs: 1},
			Labels:   map[string]string{"app": "viz"},
			Run: func(pc *cluster.PodCtx) {
				// Mount Ceph and read the results into the notebook.
				site := e.Cluster.Node(pc.NodeName()).Site
				e.Net.Transfer(run.sourceSite("connect-results", site), site, resultBytes, func() {
					if pc.Alive() {
						pc.Succeed()
					}
				})
			},
		},
	})
}
