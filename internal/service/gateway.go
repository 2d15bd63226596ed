package service

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/auth"
	"chaseci/internal/dataset"
	"chaseci/internal/sched"
	"chaseci/internal/sim"
)

// GatewayOptions configures the HTTP face of the service.
type GatewayOptions struct {
	// Providers registers identity providers (email domain -> provider
	// name) with the CILogon-style federation backing /v1/login.
	Providers map[string]string
	// TokenTTL is the bearer-token lifetime (<= 0 defaults to 12h).
	TokenTTL time.Duration
	// AllowAnonymous accepts requests without an Authorization header,
	// attributing them to the "anonymous" owner.
	AllowAnonymous bool
	// TokenSeed seeds the token RNG; 0 derives one from the wall clock.
	TokenSeed uint64
	// RateLimit is the per-tenant sustained submit rate (requests/second)
	// enforced with a token bucket; <= 0 disables gateway rate limiting.
	// Over-rate submits get 429 with a Retry-After header before the body
	// is even read.
	RateLimit float64
	// RateBurst is the token-bucket depth (<= 0 defaults to ~2s of
	// RateLimit, minimum 1).
	RateBurst int
}

// Gateway is the chased HTTP/JSON front-end: submit, poll, stream
// progress, fetch results, cancel — the uniform service face over every
// compute kernel. It implements http.Handler.
//
//	POST /v1/login            {"user": "who@domain"} -> {"token": ...}
//	POST /v1/jobs             api.JobRequest -> 202 api.SubmitResponse
//	GET  /v1/jobs             [api.JobStatus, ...]
//	GET  /v1/jobs/{id}        api.JobStatus
//	GET  /v1/jobs/{id}/events NDJSON stream of api.JobStatus until terminal
//	GET  /v1/jobs/{id}/result api.ResultEnvelope (409 until terminal)
//	POST /v1/jobs/{id}/cancel {"id": ..., "cancelled": bool}
//	POST /v1/datasets         raw CDS1 bytes -> 201 dataset.Info (server ids)
//	PUT  /v1/datasets/{id}    raw CDS1 bytes -> 201 dataset.Info (id verified)
//	GET  /v1/datasets         [dataset.Info, ...]
//	GET  /v1/datasets/{id}    raw CDS1 bytes
//	GET  /v1/kinds            [kind, ...]
//	GET  /healthz             liveness + job count
//	GET  /metricz             text metrics: one `name{label="v"} value` line per series
//
// The reused internal/auth federation runs on a virtual clock; the gateway
// pins that clock to wall-elapsed time under a mutex, so token expiry
// behaves like real time while the federation stays single-threaded.
//
// Authentication model: the federation simulates CILogon identity
// claiming — /v1/login vouches that the identity's domain has a
// registered provider, it does not verify a credential. Ownership
// scoping therefore isolates cooperating tenants (and accidents), not a
// malicious caller who asserts someone else's identity; real deployments
// would swap the login handler for an actual SSO exchange.
type Gateway struct {
	runner  *Runner
	mux     *http.ServeMux
	anon    bool
	limiter *rateLimiter // nil when rate limiting is off

	aclk *wallClock
	fed  *auth.Federation
}

// wallClock drives a sim.Clock to wall-elapsed time under a mutex, so the
// single-threaded virtual-time auth federation behaves correctly inside
// the concurrent gateway: Lock() advances the clock to "now" and must be
// held around every touch of the federation.
type wallClock struct {
	mu    sync.Mutex
	clock *sim.Clock
	epoch time.Time
}

func newWallClock() *wallClock {
	return &wallClock{clock: sim.NewClock(), epoch: time.Now()}
}

// Lock acquires the mutex and advances the clock to wall-elapsed time.
func (w *wallClock) Lock() {
	w.mu.Lock()
	w.clock.RunUntil(time.Since(w.epoch))
}

func (w *wallClock) Unlock() { w.mu.Unlock() }

// NewGateway builds a Gateway over runner.
func NewGateway(runner *Runner, opts GatewayOptions) *Gateway {
	aclk := newWallClock()
	seed := opts.TokenSeed
	if seed == 0 {
		// Token ids must not be guessable from process start time.
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		} else {
			seed = uint64(time.Now().UnixNano())
		}
	}
	fed := auth.NewFederation(aclk.clock, opts.TokenTTL, seed)
	for domain, name := range opts.Providers {
		fed.RegisterProvider(name, domain)
	}
	g := &Gateway{
		runner: runner,
		mux:    http.NewServeMux(),
		anon:   opts.AllowAnonymous,
		aclk:   aclk,
		fed:    fed,
	}
	if opts.RateLimit > 0 {
		g.limiter = newRateLimiter(opts.RateLimit, opts.RateBurst)
	}
	g.mux.HandleFunc("POST /v1/login", g.handleLogin)
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs", g.handleList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleStatus)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	g.mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleResult)
	g.mux.HandleFunc("POST /v1/jobs/{id}/cancel", g.handleCancel)
	g.mux.HandleFunc("POST /v1/datasets", g.handleDatasetPost)
	g.mux.HandleFunc("PUT /v1/datasets/{id}", g.handleDatasetPut)
	g.mux.HandleFunc("GET /v1/datasets", g.handleDatasetList)
	g.mux.HandleFunc("GET /v1/datasets/{id}", g.handleDatasetGet)
	g.mux.HandleFunc("DELETE /v1/datasets/{id}", g.handleDatasetDelete)
	g.mux.HandleFunc("GET /v1/kinds", g.handleKinds)
	g.mux.HandleFunc("GET /v1/nodes", g.handleNodes)
	g.mux.HandleFunc("POST /v1/nodes/{name}/drain", g.handleNodeDrain)
	g.mux.HandleFunc("POST /v1/nodes/{name}/restore", g.handleNodeRestore)
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /metricz", g.handleMetrics)
	return g
}

// ServeHTTP dispatches to the gateway's routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Request-body caps: the schema layer bounds what a request may make the
// service allocate, but json decoding allocates while parsing, so the
// byte stream itself must be bounded first. maxSubmitBytes fits the
// largest valid inline volume (maxVoxels floats) even at full ~16-byte
// JSON precision per value.
const (
	maxSubmitBytes = 1536 << 20
	maxLoginBytes  = 4 << 10
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSecs renders a backoff as whole seconds for the Retry-After
// header (rounded up, minimum 1 — the header has no sub-second form).
func retryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// authenticate resolves the request's identity: a Bearer token validated
// against the federation, or "anonymous" when allowed.
func (g *Gateway) authenticate(r *http.Request) (string, error) {
	h := r.Header.Get("Authorization")
	if h == "" {
		if g.anon {
			return "anonymous", nil
		}
		return "", errors.New("missing Authorization: Bearer <token> header")
	}
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok {
		return "", errors.New("malformed Authorization header, want Bearer <token>")
	}
	g.aclk.Lock()
	defer g.aclk.Unlock()
	id, err := g.fed.Validate(auth.Token(tok))
	if err != nil {
		return "", err
	}
	return id.User, nil
}

func (g *Gateway) handleLogin(w http.ResponseWriter, r *http.Request) {
	var body struct {
		User string `json:"user"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoginBytes)).Decode(&body); err != nil || body.User == "" {
		writeErr(w, http.StatusBadRequest, "body must be {\"user\": \"who@domain\"}")
		return
	}
	g.aclk.Lock()
	tok, err := g.fed.Login(body.User)
	g.aclk.Unlock()
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"token": string(tok), "user": body.User})
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	owner, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	// Rate limit before reading the body: an over-rate tenant costs the
	// gateway a map lookup, not a JSON decode.
	if g.limiter != nil {
		if ok, wait := g.limiter.allow(owner, time.Now()); !ok {
			g.runner.countTenant("submits_rate_limited", owner)
			w.Header().Set("Retry-After", retryAfterSecs(wait))
			writeErr(w, http.StatusTooManyRequests,
				"submit rate limit exceeded for %s; retry after %v", owner, wait)
			return
		}
	}
	var req api.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := g.runner.Submit(&req, owner)
	if err != nil {
		var ov *OverloadError
		if errors.As(err, &ov) {
			// Admission shed: explicit backpressure, not an error the client
			// did anything wrong to earn. Retry-After tells it when the
			// queue is expected to have drained.
			w.Header().Set("Retry-After", retryAfterSecs(ov.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		code := http.StatusInternalServerError
		if errors.Is(err, api.ErrInvalid) {
			code = http.StatusBadRequest
		} else if errors.Is(err, ErrClosed) {
			code = http.StatusServiceUnavailable
		} else if errors.Is(err, sched.ErrUnschedulable) || errors.Is(err, sched.ErrQuotaExceeded) ||
			errors.Is(err, sched.ErrNoReplicas) {
			// The request is well-formed but the fabric cannot admit it.
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: st.ID, State: st.State})
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	caller, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	// Same ownership scope as the per-job endpoints: an identity lists
	// its own jobs plus anonymous-owned ones.
	all := g.runner.List()
	mine := make([]api.JobStatus, 0, len(all))
	for _, st := range all {
		if visibleTo(st, caller) {
			mine = append(mine, st)
		}
	}
	writeJSON(w, http.StatusOK, mine)
}

// anonOwner is the identity recorded on jobs submitted without a token.
const anonOwner = "anonymous"

// visibleTo reports whether a job is in the caller's ownership scope:
// jobs submitted by a federated identity are visible only to that
// identity, even when the gateway also accepts anonymous traffic;
// anonymous-owned jobs are open.
func visibleTo(st api.JobStatus, caller string) bool {
	return st.Owner == "" || st.Owner == anonOwner || st.Owner == caller
}

// jobForCaller authenticates the request and resolves the {id} job — any
// job still queued or running, or one of the 50,000 most recently
// finished — enforcing ownership. It writes the error reply itself and
// reports ok=false on any failure.
func (g *Gateway) jobForCaller(w http.ResponseWriter, r *http.Request) (api.JobStatus, bool) {
	caller, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return api.JobStatus{}, false
	}
	id := r.PathValue("id")
	st, ok := g.runner.Status(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return api.JobStatus{}, false
	}
	if !visibleTo(st, caller) {
		writeErr(w, http.StatusForbidden, "job %s belongs to another identity", id)
		return api.JobStatus{}, false
	}
	return st, true
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := g.jobForCaller(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// eventsCounterFloor is the least time between two lines of one events
// stream that differ only in their progress counters (a kernel reports far
// faster than a consumer reads). Nothing else is paced; a variable so that a
// test can raise it and show exactly that.
var eventsCounterFloor = 50 * time.Millisecond

// handleEvents streams NDJSON status snapshots: the current one first, then
// one line per observed change — a state, stage, placement or error change
// is written as soon as the job's watch wakes the stream, a change of the
// counters alone at most once per eventsCounterFloor — ending with the
// terminal snapshot. Between changes the stream is parked on the watch and
// holds no timer.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := g.jobForCaller(w, r)
	if !ok {
		return
	}
	// Count the live stream so LeakCheck can assert every one exited; the
	// decrement is deferred, so a slow or disconnecting consumer can never
	// leave the count (or the goroutine serving it) behind.
	g.runner.streams.Add(1)
	defer g.runner.streams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	j := g.runner.lookupJob(st.ID)
	if j == nil {
		// Terminal and evicted since jobForCaller read it: that snapshot
		// is the last there will be.
		enc.Encode(st)
		return
	}
	wt := g.runner.watch(&j.watchers)
	defer wt.close()
	var last api.JobStatus
	var counted time.Time      // when the last counters-only line was written
	var floor <-chan time.Time // armed once, while a counters-only change is held back
	for {
		st = g.runner.statusOf(j)
		if st != last {
			same := last
			same.Done, same.Total = st.Done, st.Total
			countersOnly := st == same
			if hold := eventsCounterFloor - time.Since(counted); countersOnly && hold > 0 {
				if floor == nil {
					floor = time.After(hold)
				}
			} else {
				floor = nil
				if err := enc.Encode(st); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				if countersOnly {
					counted = time.Now()
				}
				last = st
			}
		}
		if st.State.Terminal() {
			return
		}
		if wt.wait(r.Context(), floor) != nil {
			return
		}
	}
}

func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := g.jobForCaller(w, r)
	if !ok {
		return
	}
	if !st.State.Terminal() {
		writeErr(w, http.StatusConflict, "job %s is %s; result not ready", st.ID, st.State)
		return
	}
	raw, _, _ := g.runner.Result(st.ID)
	writeJSON(w, http.StatusOK, api.ResultEnvelope{
		ID: st.ID, Kind: st.Kind, State: st.State, Error: st.Error, Result: raw,
	})
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := g.jobForCaller(w, r)
	if !ok {
		return
	}
	cancelled := g.runner.Cancel(st.ID)
	writeJSON(w, http.StatusOK, map[string]any{"id": st.ID, "cancelled": cancelled})
}

// uploadPrealloc is the most a declared Content-Length may allocate before
// the bytes it declares arrive. A body past it grows as they do, so a
// client that declares 256 MB and sends nothing costs the gateway 16 MiB.
const uploadPrealloc = 16 << 20

// readDatasetBody reads an upload capped at the codec's own maximum, so a
// client cannot stream unbounded bytes at the gateway. A declared length
// sizes one buffer that the body is read into once (the server ends a
// body at its Content-Length); a chunked body, which declares none, grows
// as it arrives.
func readDatasetBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, dataset.MaxEncodedBytes)
	if r.ContentLength < 0 {
		return io.ReadAll(body)
	}
	size := int(r.ContentLength)
	buf := make([]byte, 0, min(size, uploadPrealloc))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), size-len(buf)))
		}
		n, err := io.ReadFull(body, buf[len(buf):min(cap(buf), size)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, err // short of what it declared
		}
	}
	return buf, nil
}

// storeDataset validates + stores an upload and writes the reply. wantID,
// when non-empty, is the PUT contract's claim: the store verifies it with
// the one hash that addresses the content.
func (g *Gateway) storeDataset(w http.ResponseWriter, r *http.Request, wantID string) {
	owner, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	if r.ContentLength > dataset.MaxEncodedBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"dataset body: declares %d bytes (max %d)", r.ContentLength, dataset.MaxEncodedBytes)
		return
	}
	enc, err := readDatasetBody(w, r)
	if err != nil {
		// Only an actual cap overflow is 413; a short or broken body is
		// the client's 400, not a size problem.
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "dataset body: %v", err)
		return
	}
	var info dataset.Info
	if wantID == "" {
		info, err = g.runner.Datasets().Put(enc, owner)
	} else {
		info, err = g.runner.Datasets().PutAt(wantID, enc, owner)
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, dataset.ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleDatasetPost uploads a dataset; the server computes and returns its
// content address.
func (g *Gateway) handleDatasetPost(w http.ResponseWriter, r *http.Request) {
	g.storeDataset(w, r, "")
}

// handleDatasetPut uploads a dataset at a claimed id, verified server-side.
func (g *Gateway) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !dataset.ValidID(id) {
		writeErr(w, http.StatusBadRequest, "malformed dataset id %q", id)
		return
	}
	g.storeDataset(w, r, id)
}

// handleDatasetGet streams a dataset's raw encoding back to its owners
// (everyone who put the content — dataset.Manager.VisibleTo is the single
// ownership predicate, shared with the submit-time ref check).
func (g *Gateway) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	caller, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	id := r.PathValue("id")
	// Missing and forbidden collapse into one reply: ids are content
	// hashes, so a distinguishable 403 would confirm to a non-owner that
	// someone uploaded those exact bytes (the same non-oracle rule the
	// submit-time ref check follows).
	if !g.runner.Datasets().VisibleTo(id, caller) {
		writeErr(w, http.StatusNotFound, "unknown dataset %q", id)
		return
	}
	enc, err := g.runner.Datasets().GetBytes(id)
	if errors.Is(err, dataset.ErrNotFound) {
		// Deleted between the visibility check and the read: same 404 as
		// never-existed, keeping the endpoint non-oracle.
		writeErr(w, http.StatusNotFound, "unknown dataset %q", id)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(enc)))
	w.Write(enc)
}

// handleDatasetDelete drops the caller's ownership claim — the
// reclamation path that keeps upload-and-forget from growing the store
// forever. The dataset's bytes are removed when the last claim drops
// (deferred while a running job still pins them). Missing, forbidden, and
// claim-free ids all produce the same 404 (non-oracle, as everywhere).
func (g *Gateway) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	caller, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	id := r.PathValue("id")
	if !g.runner.Datasets().VisibleTo(id, caller) || !g.runner.Datasets().Drop(id, caller) {
		writeErr(w, http.StatusNotFound, "unknown dataset %q", id)
		return
	}
	_, remains := g.runner.Datasets().Stat(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": !remains})
}

// handleDatasetList lists the caller's visible datasets.
func (g *Gateway) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	caller, err := g.authenticate(r)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	ds := g.runner.Datasets()
	all := ds.List()
	mine := make([]dataset.Info, 0, len(all))
	for _, info := range all {
		if !ds.VisibleTo(info.ID, caller) {
			continue
		}
		// A co-owner sees their own identity on the entry, not the first
		// uploader's — content addressing must not leak who else has it.
		// A caller who merely reaches an open dataset sees a neutral
		// owner, not a fabricated claim.
		if info.Owner != "" && info.Owner != anonOwner && info.Owner != caller {
			if ds.IsOwner(info.ID, caller) {
				info.Owner = caller
			} else {
				info.Owner = ""
			}
		}
		mine = append(mine, info)
	}
	writeJSON(w, http.StatusOK, mine)
}

func (g *Gateway) handleKinds(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.runner.reg.Kinds())
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": g.runner.Count()})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, g.runner.MetricsText())
}

// --- Cluster-mode node endpoints -------------------------------------------

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	if _, err := g.authenticate(r); err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	if !g.runner.ClusterMode() {
		writeErr(w, http.StatusConflict, "not a cluster deployment")
		return
	}
	writeJSON(w, http.StatusOK, g.runner.Nodes())
}

func (g *Gateway) handleNodeDrain(w http.ResponseWriter, r *http.Request) {
	g.nodeLifecycle(w, r, g.runner.DrainNode, "draining")
}

func (g *Gateway) handleNodeRestore(w http.ResponseWriter, r *http.Request) {
	g.nodeLifecycle(w, r, g.runner.RestoreNode, "restoring")
}

func (g *Gateway) nodeLifecycle(w http.ResponseWriter, r *http.Request, op func(string) error, verb string) {
	if _, err := g.authenticate(r); err != nil {
		writeErr(w, http.StatusUnauthorized, "%v", err)
		return
	}
	if !g.runner.ClusterMode() {
		writeErr(w, http.StatusConflict, "not a cluster deployment")
		return
	}
	name := r.PathValue("name")
	if err := op(name); err != nil {
		writeErr(w, http.StatusNotFound, "%s node %q: %v", verb, name, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": name, "ok": true})
}
