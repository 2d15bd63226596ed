// Command chased (CHASE-CI daemon) is the HTTP/JSON job gateway over the
// repository's compute kernels — FFN segmentation, CONNECT labelling, MERRA
// IVT derivation, FFN training and sweeps, measured PPoDS workflows — plus
// the client for its content-addressed dataset plane: volumes upload once
// into the service's objstore-backed dataset store and jobs submit 64-hex
// refs instead of megabytes of inline JSON, so an ivt -> segment -> label
// analysis is three jobs, each naming the ref the one before it stored.
//
//	chased serve -addr localhost:8434      run the gateway (default command)
//	chased serve -cluster                  run it over the simulated CHASE-CI
//	                                       fabric: jobs place by data gravity
//	chased dataset put  [-dims DxHxW] FILE upload a dataset, print its ref
//	chased dataset get  -out FILE REF      download a dataset's encoded bytes
//	chased dataset ls                      list visible datasets
//	chased submit [-mode ref|inline] FILE  submit a job request (JSON file or
//	                                       "-" for stdin); -wait follows its
//	                                       events stream to the result
//	chased nodes [ls]                      list fabric nodes (cluster mode)
//	chased nodes drain|restore NODE        kill / restore a fabric node
//	chased scenario ls                     list the builtin chaos scripts
//	chased scenario run [-seed N] [NAME]   replay chaos scenarios, checking
//	                                       bit-exactness and leak invariants
//
// Client commands take -server (default http://localhost:8434) and -token
// (bearer token from POST /v1/login). `submit` defaults result_mode to
// "ref" — by-reference is the data plane's native mode; pass -mode inline
// to embed bulk payloads in result JSON.
//
// See README.md for the endpoint walkthrough.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/scenario"
	"chaseci/internal/sched"
	"chaseci/internal/service"
)

func main() {
	args := os.Args[1:]
	// Bare flags (or nothing) keep the original server invocation working.
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		serve(args)
		return
	}
	switch args[0] {
	case "serve":
		serve(args[1:])
	case "dataset":
		datasetCmd(args[1:])
	case "submit":
		submitCmd(args[1:])
	case "nodes":
		nodesCmd(args[1:])
	case "scenario":
		scenarioCmd(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "chased: unknown command %q (want serve, dataset, submit, nodes, or scenario)\n", args[0])
		os.Exit(2)
	}
}

// scenarioCmd runs the chaos-replay engine locally: `scenario ls` lists the
// builtin fault matrix, `scenario run [-seed N] [NAME ...]` executes scripts
// (all of them by default) and exits non-zero on any invariant violation.
func scenarioCmd(args []string) {
	if len(args) == 0 {
		fatalf("usage: chased scenario ls | chased scenario run [-seed N] [-v] [NAME ...]")
	}
	switch args[0] {
	case "ls":
		for _, sc := range scenario.Builtin() {
			fmt.Printf("%-22s %d jobs, %d events  %s\n", sc.Name, len(sc.Jobs), len(sc.Events), sc.Description)
		}
	case "run":
		scenarioRun(args[1:])
	default:
		fatalf("chased scenario: unknown subcommand %q (want ls or run)", args[0])
	}
}

func scenarioRun(args []string) {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "RNG seed; a failure reproduces exactly from its seed")
	verbose := fs.Bool("v", false, "log each scripted event as it applies")
	fs.Parse(args)
	var scripts []scenario.Script
	if fs.NArg() == 0 {
		scripts = scenario.Builtin()
	} else {
		for _, name := range fs.Args() {
			sc, err := scenario.Lookup(name)
			if err != nil {
				fatalf("%v", err)
			}
			scripts = append(scripts, sc)
		}
	}
	failed := 0
	for _, sc := range scripts {
		opt := scenario.Options{Seed: *seed}
		if *verbose {
			opt.Log = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
		}
		res, err := scenario.Run(sc, opt)
		if err != nil {
			fatalf("scenario %s (seed %d): %v", sc.Name, *seed, err)
		}
		status := "ok"
		if !res.Passed() {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-22s %-4s seed=%d jobs=%d wall=%v fp=%s\n",
			sc.Name, status, *seed, len(res.Jobs), res.Wall.Round(time.Millisecond), res.Fingerprint[:12])
		for _, v := range res.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
	}
	if failed > 0 {
		fatalf("%d of %d scenarios violated invariants (seed %d)", failed, len(scripts), *seed)
	}
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "localhost:8434", "HTTP listen address")
		clusterOn = fs.Bool("cluster", false, "place jobs on the simulated CHASE-CI fabric by data gravity")
		workers   = fs.Int("workers", 4, "job worker pool size (per node with -cluster)")
		anon      = fs.Bool("anon", true, "allow unauthenticated requests")
		providers = fs.String("providers", "ucsd.edu=UCSD,sdsc.edu=SDSC,example.edu=Example",
			"comma-separated domain=name identity providers")
		ttl = fs.Duration("ttl", 12*time.Hour, "bearer token lifetime")
		// Serving-hardening knobs: admission bounds, weighted-fair tenant
		// shares, and the per-tenant submit rate limit.
		maxPending       = fs.Int("max-pending", 0, "global pending-job bound; submits past it shed with 429 (0 = default, -1 = unlimited)")
		maxPendingTenant = fs.Int("max-pending-tenant", 0, "per-tenant pending-job bound (0 = default, -1 = unlimited)")
		tenantWeights    = fs.String("tenant-weights", "", "comma-separated tenant=weight fair-dispatch shares (unlisted tenants weigh 1)")
		rateLimit        = fs.Float64("rate-limit", 0, "per-tenant rate limit of submits and dataset uploads together, in requests/second (0 = off)")
		rateBurst        = fs.Int("rate-burst", 0, "per-tenant burst of submits and uploads on top of -rate-limit (0 = 2x the rate)")
	)
	fs.Parse(args)

	provMap := make(map[string]string)
	for _, pair := range strings.Split(*providers, ",") {
		domain, name, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || domain == "" || name == "" {
			fmt.Fprintf(os.Stderr, "chased: bad -providers entry %q (want domain=name)\n", pair)
			os.Exit(2)
		}
		provMap[domain] = name
	}
	weights := make(map[string]int)
	if *tenantWeights != "" {
		for _, pair := range strings.Split(*tenantWeights, ",") {
			tenant, w, ok := strings.Cut(strings.TrimSpace(pair), "=")
			n, err := strconv.Atoi(w)
			if !ok || tenant == "" || err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "chased: bad -tenant-weights entry %q (want tenant=positive-int)\n", pair)
				os.Exit(2)
			}
			weights[tenant] = n
		}
	}

	cfg := service.RunnerConfig{
		Workers:             *workers,
		MaxPending:          *maxPending,
		MaxPendingPerTenant: *maxPendingTenant,
		TenantWeights:       weights,
	}
	var runner *service.Runner
	if *clusterOn {
		fab := sched.DefaultFabric()
		runner = service.NewClusterRunnerConfigured(service.DefaultRegistry(), nil, fab, cfg)
	} else {
		runner = service.NewRunnerConfigured(service.DefaultRegistry(), nil, cfg)
	}
	defer runner.Close()
	gw := service.NewGateway(runner, service.GatewayOptions{
		Providers:      provMap,
		TokenTTL:       *ttl,
		AllowAnonymous: *anon,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
	})

	srv := newServer(*addr, gw)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("chased: Job API v1 on http://%s (workers=%d anon=%v)\n", *addr, *workers, *anon)
	fmt.Printf("chased: kinds: %v — POST /v1/jobs, PUT/GET /v1/datasets/{id}\n", api.Kinds())
	if *clusterOn {
		fmt.Printf("chased: cluster mode — %d fabric nodes, jobs place by data gravity (GET /v1/nodes)\n", len(runner.Nodes()))
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "chased:", err)
		os.Exit(1)
	}
}

// The serving connection timeouts. A client has readHeaderTimeout to send a
// request's headers, so one that trickles them holds a connection only that
// long, and a keep-alive connection is closed after idleTimeout without a
// request. Neither bounds a request whose headers are in: an upload's body
// and an events stream take as long as they take.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the HTTP server `chased serve` runs the gateway on.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// clientFlags adds the flags every client subcommand shares.
func clientFlags(fs *flag.FlagSet) (server, token *string) {
	server = fs.String("server", "http://localhost:8434", "gateway base URL")
	token = fs.String("token", "", "bearer token (POST /v1/login)")
	return
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chased: "+format+"\n", args...)
	os.Exit(1)
}

// request issues an authenticated request; a transport error or a non-2xx
// reply (with the gateway's error body) comes back as an error.
func request(method, url, token string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		var e api.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, e.Error)
		}
		return nil, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return resp, nil
}

// doRequest is request for the subcommands, which fail the process on error.
func doRequest(method, url, token string, body io.Reader) *http.Response {
	resp, err := request(method, url, token, body)
	if err != nil {
		fatalf("%v", err)
	}
	return resp
}

// awaitJob reads the job's NDJSON events stream to its terminal line and
// returns that status. The server writes a line when the job changes, so
// the client holds one request open instead of polling.
func awaitJob(server, token, id string) (api.JobStatus, error) {
	resp, err := request("GET", server+"/v1/jobs/"+id+"/events", token, nil)
	if err != nil {
		return api.JobStatus{}, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var st api.JobStatus
		if err := dec.Decode(&st); err != nil {
			return st, fmt.Errorf("events stream of %s ended before a terminal line: %w", id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
}

func datasetCmd(args []string) {
	if len(args) == 0 {
		fatalf("dataset needs a subcommand: put, get, or ls")
	}
	switch args[0] {
	case "put":
		datasetPut(args[1:])
	case "get":
		datasetGet(args[1:])
	case "ls":
		datasetLs(args[1:])
	default:
		fatalf("unknown dataset subcommand %q (want put, get, or ls)", args[0])
	}
}

// parseDims parses "DxHxW".
func parseDims(s string) (d, h, w int, err error) {
	if _, err = fmt.Sscanf(s, "%dx%dx%d", &d, &h, &w); err != nil {
		return 0, 0, 0, fmt.Errorf("bad -dims %q (want DxHxW)", s)
	}
	return d, h, w, nil
}

// datasetPut uploads FILE: CDS1-encoded bytes as-is, or — with -dims — a
// raw little-endian float32 volume (or -mask, a 0/1 float32 field) that is
// encoded client-side first.
func datasetPut(args []string) {
	fs := flag.NewFlagSet("dataset put", flag.ExitOnError)
	server, token := clientFlags(fs)
	dims := fs.String("dims", "", "DxHxW dims when FILE is raw little-endian float32 (not CDS1)")
	mask := fs.Bool("mask", false, "with -dims: encode as a 1-bit mask instead of a float32 volume")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("dataset put needs exactly one FILE argument")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}

	enc := raw
	if *dims != "" {
		d, h, w, err := parseDims(*dims)
		if err != nil {
			fatalf("%v", err)
		}
		if len(raw)%4 != 0 {
			fatalf("raw float32 file length %d is not a multiple of 4", len(raw))
		}
		data := make([]float32, len(raw)/4)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if *mask {
			enc, err = dataset.EncodeMask(d, h, w, data)
		} else {
			enc, err = dataset.EncodeVolume(d, h, w, data)
		}
		if err != nil {
			fatalf("%v", err)
		}
	} else if _, _, _, _, err := dataset.DecodeHeader(raw); err != nil {
		fatalf("%s is not a CDS1 dataset (pass -dims DxHxW for raw float32): %v", fs.Arg(0), err)
	}

	id := dataset.ID(enc)
	resp := doRequest("PUT", *server+"/v1/datasets/"+id, *token, bytes.NewReader(enc))
	defer resp.Body.Close()
	var info dataset.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		fatalf("decode reply: %v", err)
	}
	fmt.Printf("%s  %s %dx%dx%d  %d bytes\n", info.ID, info.Kind, info.D, info.H, info.W, info.Bytes)
}

func datasetGet(args []string) {
	fs := flag.NewFlagSet("dataset get", flag.ExitOnError)
	server, token := clientFlags(fs)
	out := fs.String("out", "", "write the encoded dataset to this file (required)")
	fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		fatalf("dataset get needs -out FILE and exactly one REF argument")
	}
	resp := doRequest("GET", *server+"/v1/datasets/"+fs.Arg(0), *token, nil)
	defer resp.Body.Close()
	enc, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("%v", err)
	}
	if got := dataset.ID(enc); got != fs.Arg(0) {
		fatalf("downloaded bytes hash to %s, not the requested ref (corrupt transfer?)", got)
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("%v", err)
	}
	kind, d, h, w, _ := dataset.DecodeHeader(enc)
	fmt.Printf("%s: %s %dx%dx%d, %d bytes -> %s\n", fs.Arg(0)[:12], kind, d, h, w, len(enc), *out)
}

func datasetLs(args []string) {
	fs := flag.NewFlagSet("dataset ls", flag.ExitOnError)
	server, token := clientFlags(fs)
	fs.Parse(args)
	resp := doRequest("GET", *server+"/v1/datasets", *token, nil)
	defer resp.Body.Close()
	var list []dataset.Info
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		fatalf("decode reply: %v", err)
	}
	for _, info := range list {
		owner := info.Owner
		if owner == "" {
			owner = "-"
		}
		fmt.Printf("%s  %-6s %4dx%4dx%4d %12d  %s\n", info.ID, info.Kind, info.D, info.H, info.W, info.Bytes, owner)
	}
}

// defaultKindRequest builds a ready-to-run request for the training kinds,
// so `chased submit -kind train_dist` / `-kind sweep` works without
// authoring JSON: a ref source when -ref is given, else a small synthetic
// IVT volume.
func defaultKindRequest(kind, ref, resume string, workers, rounds int, threshold float64) *api.JobRequest {
	src := api.VolumeSource{Ref: ref}
	if ref == "" {
		src = api.VolumeSource{Synth: &api.SynthSpec{NLon: 32, NLat: 24, NLev: 6, Steps: 8, Seed: 11}}
	}
	switch kind {
	case "train_dist":
		spec := &api.TrainDistSpec{
			Source:    src,
			Threshold: float32(threshold),
			Workers:   workers,
			Rounds:    rounds,
		}
		if resume != "" {
			spec.ResumeFrom = resume // the checkpoint carries net, seeds, batch
		} else {
			spec.BatchPerRound = 8
			spec.Net = &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, MoveStep: [3]int{1, 2, 2}}
			spec.NetSeed = 7
			spec.SampleSeed = 7
			spec.CheckpointEvery = 5
		}
		return &api.JobRequest{Kind: api.KindTrainDist, TrainDist: spec}
	case "sweep":
		return &api.JobRequest{Kind: api.KindSweep, Sweep: &api.SweepSpec{
			Source:        src,
			Threshold:     float32(threshold),
			TrainFraction: 0.75,
			LRs:           []float32{0.01, 0.03},
			Momentums:     []float32{0.9},
			Features:      []int{4, 6},
			Modules:       []int{1, 2},
			TrainSteps:    []int{100},
			Parallel:      workers,
			EarlyStop:     true,
			Seed:          7,
		}}
	default:
		fatalf("unknown -kind %q (want train_dist or sweep)", kind)
		return nil
	}
}

// submitCmd posts a JobRequest read from a JSON file (or stdin with "-"),
// defaulting result_mode to "ref". With -kind it generates the request
// instead.
func submitCmd(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server, token := clientFlags(fs)
	mode := fs.String("mode", "", "result_mode override: ref or inline (default ref unless the file sets one)")
	wait := fs.Bool("wait", false, "follow the job's events stream until terminal and print the result envelope")
	kind := fs.String("kind", "", "generate a default train_dist or sweep request instead of reading FILE")
	ref := fs.String("ref", "", "with -kind: dataset ref to train on (default: a small synthetic IVT volume)")
	resume := fs.String("resume", "", "with -kind train_dist: checkpoint ref to resume from")
	workers := fs.Int("workers", 4, "with -kind: data-parallel width (train_dist) or candidate parallelism (sweep)")
	rounds := fs.Int("rounds", 20, "with -kind train_dist: total synchronous rounds")
	threshold := fs.Float64("threshold", 120, "with -kind: label threshold over the raw field")
	fs.Parse(args)
	var req api.JobRequest
	if *kind != "" {
		if fs.NArg() != 0 {
			fatalf("submit -kind generates the request; drop the FILE argument")
		}
		req = *defaultKindRequest(*kind, *ref, *resume, *workers, *rounds, *threshold)
	} else {
		if fs.NArg() != 1 {
			fatalf("submit needs exactly one FILE argument (or - for stdin), or -kind")
		}
		var raw []byte
		var err error
		if fs.Arg(0) == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(fs.Arg(0))
		}
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			fatalf("parse job request: %v", err)
		}
	}
	switch {
	case *mode != "":
		req.ResultMode = api.ResultMode(*mode)
	case req.ResultMode == "":
		// By-reference results are the data plane's native mode.
		req.ResultMode = api.ResultModeRef
	}
	body, err := json.Marshal(&req)
	if err != nil {
		fatalf("%v", err)
	}
	resp := doRequest("POST", *server+"/v1/jobs", *token, bytes.NewReader(body))
	var sub api.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		fatalf("decode reply: %v", err)
	}
	fmt.Printf("job %s %s\n", sub.ID, sub.State)
	if !*wait {
		return
	}
	st, err := awaitJob(*server, *token, sub.ID)
	if err != nil {
		fatalf("%v", err)
	}
	resp = doRequest("GET", *server+"/v1/jobs/"+sub.ID+"/result", *token, nil)
	env, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(env)
	fmt.Println()
	if st.State != api.StateSucceeded {
		os.Exit(1)
	}
}

// nodesCmd talks to the cluster-mode node endpoints: `nodes` / `nodes ls`
// lists the fabric inventory, `nodes drain NODE` simulates losing a node
// (its OSD fails and its jobs requeue onto surviving replicas), and
// `nodes restore NODE` brings it back.
func nodesCmd(args []string) {
	sub, rest := "ls", args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, rest = args[0], args[1:]
	}
	switch sub {
	case "ls":
		nodesLs(rest)
	case "drain", "restore":
		nodesLifecycle(sub, rest)
	default:
		fatalf("unknown nodes subcommand %q (want ls, drain, or restore)", sub)
	}
}

func nodesLs(args []string) {
	fs := flag.NewFlagSet("nodes ls", flag.ExitOnError)
	server, token := clientFlags(fs)
	fs.Parse(args)
	resp := doRequest("GET", *server+"/v1/nodes", *token, nil)
	defer resp.Body.Close()
	var nodes []api.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		fatalf("decode reply: %v", err)
	}
	fmt.Printf("%-14s %-6s %-8s %-24s %-16s %s\n",
		"NODE", "SITE", "READY", "ALLOC CPU/MEM/GPU", "OSD", "JOBS")
	for _, n := range nodes {
		ready := "ready"
		if !n.Ready {
			ready = "down"
		}
		osd := "-"
		if n.OSD != "" {
			osd = n.OSD
			if !n.OSDUp {
				osd += "(down)"
			}
		}
		fmt.Printf("%-14s %-6s %-8s %2d/%2d %4s/%4s %d/%d GPU  %-16s %d\n",
			n.Name, n.Site, ready,
			n.AllocCPU, n.CPU, gbString(n.AllocMemoryBytes), gbString(n.MemoryBytes),
			n.AllocGPUs, n.GPUs, osd, n.BoundJobs)
	}
}

func gbString(b int64) string {
	return fmt.Sprintf("%dG", b/(1<<30))
}

func nodesLifecycle(verb string, args []string) {
	fs := flag.NewFlagSet("nodes "+verb, flag.ExitOnError)
	server, token := clientFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("nodes %s needs exactly one NODE argument", verb)
	}
	resp := doRequest("POST", *server+"/v1/nodes/"+fs.Arg(0)+"/"+verb, *token, nil)
	defer resp.Body.Close()
	var out struct {
		Node string `json:"node"`
		OK   bool   `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fatalf("decode reply: %v", err)
	}
	fmt.Printf("node %s: %s ok\n", out.Node, verb)
}
