package service

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/gpusim"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
)

// runnerModes builds the same shape of runner on both sides of the dispatch
// seam: one worker, so a second job always queues behind a running one. The
// cluster node has room for exactly two segment jobs, so a third is parked
// unplaced — the state only the cluster dispatcher has.
var runnerModes = []struct {
	name    string
	cluster bool
}{{"local", false}, {"cluster", true}}

func newModeRunner(t *testing.T, cluster bool, reg *Registry) (*Runner, *queue.Store) {
	t.Helper()
	store := queue.NewStore()
	var r *Runner
	if cluster {
		r = NewClusterRunnerConfigured(reg, store, twoSlotFabric(t), RunnerConfig{Workers: 1})
	} else {
		r = NewRunnerConfigured(reg, store, RunnerConfig{Workers: 1})
	}
	t.Cleanup(r.Close)
	return r, store
}

func twoSlotFabric(t *testing.T) *sched.Fabric {
	t.Helper()
	f := sched.NewFabric(sched.FabricConfig{Replicas: 1})
	f.AddSite("ucsd")
	if err := f.AddNode(sched.NodeSpec{
		Name: "node-0", Site: "ucsd", OSD: "osd-0", Model: gpusim.Powered1080Ti(),
		Capacity: cluster.Resources{CPU: 4, Memory: cluster.GB(8), GPUs: 2},
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// gatedSegment registers a segment handler that reports its job's name on
// started and then blocks until its context dies.
func gatedSegment(reg *Registry) chan string {
	started := make(chan string, 64)
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		started <- jc.Request().Name
		<-jc.Ctx().Done()
		return nil, jc.Ctx().Err()
	})
	return started
}

// submitGated submits n ref-mode segment jobs over one stored volume (so
// every job holds a pin) and waits for the first to occupy the only worker:
// job 0 runs, job 1 is queued on a pool, job 2.. are queued (local) or
// parked (cluster).
func submitGated(t *testing.T, r *Runner, started chan string, n int) []string {
	t.Helper()
	d, h, w, data := clusterSegmentVolume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i := range ids {
		req := refSegmentRequest(info.ID)
		req.Name = "gated-" + strconv.Itoa(i)
		st, err := r.Submit(req, "anonymous")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	if name := <-started; name != "gated-0" {
		t.Fatalf("first job to run = %q, want gated-0", name)
	}
	return ids
}

// metricLines parses MetricsText into `name{labels}` -> value.
func metricLines(t *testing.T, r *Runner) map[string]float64 {
	t.Helper()
	return parseMetricLines(t, r.MetricsText())
}

// parseMetricLines parses /metricz text into `name{labels}` -> value.
func parseMetricLines(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		head, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		out[head] = v
	}
	return out
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	for _, mode := range runnerModes {
		t.Run(mode.name, func(t *testing.T) {
			reg := NewRegistry()
			started := gatedSegment(reg)
			r, _ := newModeRunner(t, mode.cluster, reg)
			ids := submitGated(t, r, started, 3)

			// ids[1] sits on a pool queue; ids[2] too (local) or is parked.
			for _, id := range ids[1:] {
				if !r.Cancel(id) {
					t.Fatalf("Cancel(%s) returned false for a queued job", id)
				}
				st, _ := r.Status(id)
				if st.State != api.StateCancelled || st.StartedAt != 0 || st.Error != "cancelled before start" {
					t.Fatalf("queued-cancel status = %+v", st)
				}
			}
			if r.Cancel(ids[1]) {
				t.Fatal("second Cancel of a terminal job returned true")
			}
			// Free the worker and let it drain its queue: Close returns once
			// the worker has exited, so anything it was going to run has run.
			r.Cancel(ids[0])
			waitState(t, r, ids[0], terminal)
			r.Close()
			select {
			case name := <-started:
				t.Fatalf("cancelled queued job %q ran anyway", name)
			default:
			}
			if got := metricLines(t, r)[`jobs_cancelled{kind="segment"}`]; got != 3 {
				t.Fatalf("jobs_cancelled = %v, want 3", got)
			}
			assertNoLeaks(t, r)
		})
	}
}

func TestRunnerCloseCancelsRunning(t *testing.T) {
	for _, mode := range runnerModes {
		t.Run(mode.name, func(t *testing.T) {
			reg := NewRegistry()
			started := gatedSegment(reg)
			r, _ := newModeRunner(t, mode.cluster, reg)
			ids := submitGated(t, r, started, 1)
			r.Close()
			if got, _ := r.Status(ids[0]); got.State != api.StateCancelled {
				t.Fatalf("state after Close = %s, want cancelled", got.State)
			}
			if _, err := r.Submit(tinySegmentRequest(), ""); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
			}
			assertNoLeaks(t, r)
		})
	}
}

// TestCloseEndsEveryQueuedJob: Close must leave no job queued, wherever it
// was waiting — on a pool's queue, parked unplaced, or landed by a Submit
// racing the shutdown — and every one of them is accounted for: cancelled
// in the store and in /metricz, pins and admission counts back at zero.
func TestCloseEndsEveryQueuedJob(t *testing.T) {
	for _, mode := range runnerModes {
		t.Run(mode.name, func(t *testing.T) {
			reg := NewRegistry()
			started := gatedSegment(reg)
			r, store := newModeRunner(t, mode.cluster, reg)
			ids := submitGated(t, r, started, 4)
			if mode.cluster {
				if node := r.Scheduler().BoundNode(ids[3]); node != "" {
					t.Fatalf("fourth job bound to %q, want parked", node)
				}
			}

			// Keep submitting while Close runs; every accepted job must end.
			var racers []string
			var wg sync.WaitGroup
			racing := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					st, err := r.Submit(tinySegmentRequest(), "racer@ucsd.edu")
					if errors.Is(err, ErrClosed) {
						return
					}
					if err == nil {
						racers = append(racers, st.ID)
					}
					if i == 0 {
						close(racing)
					}
				}
			}()
			<-racing
			r.Close()
			wg.Wait()

			for _, id := range append(ids, racers...) {
				st, _ := r.Status(id)
				if st.State != api.StateCancelled {
					t.Fatalf("job %s state after Close = %s (%s), want cancelled", id, st.State, st.Error)
				}
				if rec, ok := store.Get(JobKey(id)); !ok || !strings.Contains(rec, `"cancelled"`) {
					t.Fatalf("store record of %s = %q, ok=%v", id, rec, ok)
				}
			}
			if got := r.adm.totalPending(); got != 0 {
				t.Fatalf("PendingTotal after Close = %d", got)
			}
			assertNoLeaks(t, r)

			// Conservation: what was submitted ended, and no gauge is left up.
			m := metricLines(t, r)
			ended := m[`jobs_succeeded{kind="segment"}`] + m[`jobs_failed{kind="segment"}`] + m[`jobs_cancelled{kind="segment"}`]
			if sub := m[`jobs_submitted{kind="segment"}`]; sub != float64(len(ids)+len(racers)) || sub != ended {
				t.Fatalf("submitted %v (want %d), ended %v:\n%s", sub, len(ids)+len(racers), ended, r.MetricsText())
			}
			for head, v := range m {
				name, _, _ := strings.Cut(head, "{")
				switch name {
				case "queue_depth", "jobs_pending", "jobs_running", "tenant_pending":
					if v != 0 {
						t.Fatalf("%s = %v after Close, want 0", head, v)
					}
				}
			}
		})
	}
}

// TestStatusPlacementOnlyOnClusterRunner: a single-node job's status carries
// no placement object at all (so its wire size is the pre-cluster one); a
// cluster job's does.
func TestStatusPlacementOnlyOnClusterRunner(t *testing.T) {
	for _, mode := range runnerModes {
		t.Run(mode.name, func(t *testing.T) {
			reg := NewRegistry()
			started := gatedSegment(reg)
			r, _ := newModeRunner(t, mode.cluster, reg)
			ids := submitGated(t, r, started, 1)
			st, _ := r.Status(ids[0])
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if _, has := fields["placement"]; has != mode.cluster {
				t.Fatalf("placement key present = %v on %s runner: %s", has, mode.name, raw)
			}
		})
	}
}
