package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names, units and directions; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that -compare calls a regression. On
	// an end-to-end metric it is also the bound BENCHMARK.json declares and
	// the driver enforces; on a per-layer metric it is -compare's alone, and
	// 0 means the metric is not compared.
	Bound float64
	// Moves names the end-to-end metrics and workloads a per-layer metric is
	// predicted to move (printed beside it; the README has the full table).
	Moves string
}

// endToEnd are the metrics the driver holds to a bound. failed_share is zero
// on a healthy run, so it travels as the result line's attempted/failed pair
// instead. The four timing metrics a user of the service would see head the
// per-layer list, not this one: on the shared 2-vCPU machine class this runs
// on they do not repeat within 0.25, the widest bound the driver admits, and
// the driver refuses a benchmark whose own runs spread past a bound (README,
// "Bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "wire_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.02},
}

var perLayer = []metricDef{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Moves: "throughput a user sees, on all; median of slices"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "latency a user sees, on all; pooled samples"},
	{Name: "job_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "tail latency a user sees, on all; pooled samples, count printed"},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "whole-process user+sys CPU per unit, on all; median of slices"},
	{Name: "service.gateway_submit_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job, jobs_per_s, job_p50_ms on ctl_tiny"},
	{Name: "service.gateway_status_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job, jobs_per_s, job_p50_ms on ctl_tiny"},
	{Name: "service.gateway_result_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job, jobs_per_s, job_p50_ms on ctl_tiny"},
	{Name: "service.queue_wait_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, job_p95_ms on seg_ref64_burst (queue 16 deep), ctl_tiny (wake latency)"},
	{Name: "service.handler_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms, jobs_per_s on connect_chain, train_dist; ~0 on ctl_tiny"},
	{Name: "service.finish_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on ctl_tiny, seg_ref64_burst"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower", Moves: "cpu_ms_per_job on all"},
	{Name: "service.shed", Unit: "count", Better: "lower", Moves: "failed share on all"},
	{Name: "service.submit_direct_us", Unit: "us", Better: "lower", Moves: "runner share of cpu_ms_per_job on ctl_tiny"},
	{Name: "service.metricz_us", Unit: "us", Better: "lower", Moves: "job_p95_ms on ctl_tiny"},
	{Name: "service.metrics_text_us", Unit: "us", Better: "lower", Moves: "job_p95_ms on ctl_tiny"},
	{Name: "api.decode_validate_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job on ctl_tiny"},
	{Name: "auth.validate_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job on ctl_tiny"},
	{Name: "queue.set_get_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job on ctl_tiny"},
	{Name: "queue.keys_per_kjob", Unit: "count", Better: "lower", Moves: "runtime.heap_growth_kb_per_kjob on ctl_tiny"},
	{Name: "metrics.counter_inc_ns", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_job, alloc_kb_per_job on ctl_tiny"},
	{Name: "metrics.hist_observe_ns", Unit: "ns", Better: "lower", Moves: "cpu_ms_per_job on ctl_tiny"},
	{Name: "workflow.execute_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on ctl_tiny"},
	{Name: "dataset.resolve_hit_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, jobs_per_s on seg_ref64_burst"},
	{Name: "dataset.clone_us", Unit: "us", Better: "lower", Moves: "alloc_kb_per_job, job_p50_ms on seg_ref64_burst"},
	{Name: "dataset.put_mask_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, jobs_per_s on seg_ref64_burst"},
	{Name: "dataset.resolve_miss_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, alloc_kb_per_job on connect_chain; flat on seg_ref64_burst"},
	{Name: "dataset.put_volume_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, alloc_kb_per_job on connect_chain; flat on seg_ref64_burst"},
	{Name: "dataset.put_checkpoint_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, alloc_kb_per_job on train_dist; flat on seg_ref64_burst"},
	{Name: "dataset.cached_mb", Unit: "MB", Better: "lower", Moves: "runtime.heap_live_mb on connect_chain"},
	{Name: "dataset.objects", Unit: "count", Better: "lower", Moves: "runtime.heap_live_mb on connect_chain"},
	{Name: "objstore.write_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain"},
	{Name: "objstore.read_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain"},
	{Name: "sched.place_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain (us against 100 ms: predicted invisible)"},
	{Name: "sched.replica_local_share", Unit: "ratio", Better: "higher", Moves: "job_p50_ms on connect_chain (predicted invisible)"},
	{Name: "sched.requeues", Unit: "count", Better: "lower", Moves: "job_p50_ms on connect_chain (predicted invisible)"},
	{Name: "merra.ivt_volume_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms, cpu_ms_per_job on connect_chain (~12 %)"},
	{Name: "ffn.normalize_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain, seg_ref64_burst"},
	{Name: "ffn.grid_seeds_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain"},
	{Name: "ffn.segment_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms, cpu_ms_per_job, jobs_per_s on connect_chain (~80 %)"},
	{Name: "ffn.segment_steps", Unit: "count", Better: "lower", Moves: "exact count behind ffn.segment_ms"},
	{Name: "ffn.train_round_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms on train_dist; flat on connect_chain"},
	{Name: "ffn.checkpoint_encode_us", Unit: "us", Better: "lower", Moves: "job_p50_ms, alloc_kb_per_job on train_dist"},
	{Name: "ffn.comm_bytes_per_round", Unit: "B", Better: "lower", Moves: "computed ring all-reduce bytes on train_dist"},
	{Name: "tensor.conv3d_fwd_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on connect_chain"},
	{Name: "tensor.conv3d_bwd_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on train_dist"},
	{Name: "tensor.conv3d_fwd_flops", Unit: "count", Better: "lower", Moves: "computed from shapes"},
	{Name: "tensor.conv3d_fwd_bytes", Unit: "B", Better: "lower", Moves: "computed from shapes"},
	{Name: "connect.label_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms on connect_chain (< 1 %: predicted invisible)"},
	{Name: "connect.objects", Unit: "count", Better: "higher", Moves: "exact count behind connect.label_ms"},
	{Name: "parallel.workers", Unit: "count", Better: "higher", Moves: "cpu_ms_per_job on connect_chain, train_dist"},
	{Name: "parallel.invoke_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_job on connect_chain, train_dist"},
	{Name: "step.ivt_ms", Unit: "ms", Better: "lower", Moves: "sums to job_p50_ms on connect_chain"},
	{Name: "step.segment_ms", Unit: "ms", Better: "lower", Moves: "sums to job_p50_ms on connect_chain"},
	{Name: "step.label_ms", Unit: "ms", Better: "lower", Moves: "sums to job_p50_ms on connect_chain"},
	{Name: "step.ivt_wire_kb", Unit: "KB", Better: "lower", Moves: "sums to wire_kb_per_job on connect_chain"},
	{Name: "step.segment_wire_kb", Unit: "KB", Better: "lower", Moves: "sums to wire_kb_per_job on connect_chain"},
	{Name: "step.label_wire_kb", Unit: "KB", Better: "lower", Moves: "sums to wire_kb_per_job on connect_chain"},
	{Name: "loadgen.client_submit_us", Unit: "us", Better: "lower", Moves: "client's constant share of cpu_ms_per_job on all"},
	{Name: "loadgen.client_wait_us", Unit: "us", Better: "lower", Moves: "client's constant share of cpu_ms_per_job on all"},
	{Name: "loadgen.client_result_us", Unit: "us", Better: "lower", Moves: "client's constant share of cpu_ms_per_job on all"},
	{Name: "loadgen.http_overhead_us", Unit: "us", Better: "lower", Moves: "client's constant share of cpu_ms_per_job on all"},
	{Name: "runtime.allocs_per_job", Unit: "count", Better: "lower", Moves: "alloc_kb_per_job -> gc_cycles -> cpu_ms_per_job on train_dist, seg_ref64_burst"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "cpu_ms_per_job on train_dist, seg_ref64_burst"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "job_p95_ms on train_dist, seg_ref64_burst"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower", Moves: "gc cost on all"},
	{Name: "runtime.heap_growth_kb_per_kjob", Unit: "KB", Better: "lower", Moves: "the serving-path metrics sample leak on ctl_tiny"},
	{Name: "trace.job_ms", Unit: "ms", Better: "lower", Moves: "traced job latency the five job spans are summed against"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Moves: "share of traced job latency no job span covers (must stay < 0.05)"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none: the cost of looking"},
}

// compared are the metrics -compare gives a row: the end-to-end ones and
// the per-layer ones that carry a bound.
func compared() []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		if d.Bound > 0 {
			out = append(out, d)
		}
	}
	return out
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
