package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd are the metrics a user of the system would see. Every run
// reports all of them: each workload runs all five scenarios and differs in
// which one gets half of the measured time (see README.md). A bound is at
// least three times the run-to-run spread seen on this shared 2-core box
// where the driver's cap of 0.25 leaves room for that; README.md records the
// spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"solve_s", "s", "lower", 0.25},
	{"resolve_ms_p50", "ms", "lower", 0.25},
	{"resolve_ms_p99", "ms", "lower", 0.25},
	{"matrix_s", "s", "lower", 0.25},
	{"live_tuples_per_s", "tuples/s", "higher", 0.25},
	{"live_latency_ms_p50", "ms", "lower", 0.25},
	{"live_latency_ms_p99", "ms", "lower", 0.25},
	{"live_failover_gap_ms", "ms", "lower", 0.10},
	{"cmd_rtt_ms_p50", "ms", "lower", 0.15},
	{"cmd_rtt_ms_p90", "ms", "lower", 0.10},
	{"reconverge_ms_p50", "ms", "lower", 0.05},
}

// perLayer are the traced run's metrics, one group per package of this
// repo. They gate nothing; each names, in README.md, the end-to-end metric
// it should move.
var perLayer = []metricDef{
	{Name: "core.new_rates_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ic_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cost_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host_loads_ns", Unit: "ns", Better: "lower"},

	{Name: "ftsearch.nodes", Unit: "count", Better: "lower"},
	{Name: "ftsearch.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ftsearch.paper_nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ftsearch.prunes_cpu", Unit: "count", Better: "higher"},
	{Name: "ftsearch.prunes_ic", Unit: "count", Better: "higher"},
	{Name: "ftsearch.prunes_cost", Unit: "count", Better: "higher"},
	{Name: "ftsearch.prunes_dom", Unit: "count", Better: "higher"},
	{Name: "ftsearch.proved_frac", Unit: "ratio", Better: "higher"},
	{Name: "ftsearch.first_solution_ms", Unit: "ms", Better: "lower"},
	{Name: "ftsearch.alloc_bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "ftsearch.new_solver_ms", Unit: "ms", Better: "lower"},
	{Name: "ftsearch.warm_nodes", Unit: "count", Better: "lower"},
	{Name: "ftsearch.warm_node_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ftsearch.warm_start_frac", Unit: "ratio", Better: "higher"},
	{Name: "ftsearch.alloc_bytes_per_resolve", Unit: "B", Better: "lower"},

	{Name: "appgen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "strategy.greedy_ms", Unit: "ms", Better: "lower"},
	{Name: "strategy.nonreplicated_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.config_at_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.push_pop_ns_1e3", Unit: "ns", Better: "lower"},
	{Name: "sim.push_pop_ns_1e5", Unit: "ns", Better: "lower"},
	{Name: "sim.recur_ns", Unit: "ns", Better: "lower"},

	{Name: "engine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.inject_all_us", Unit: "us", Better: "lower"},
	{Name: "engine.run_ms_per_cell", Unit: "ms", Better: "lower"},
	{Name: "engine.wall_ns_per_sim_s", Unit: "ns", Better: "lower"},
	{Name: "engine.alloc_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "engine.cells", Unit: "count", Better: "lower"},
	{Name: "engine.config_switches", Unit: "count", Better: "lower"},
	{Name: "engine.dropped_total", Unit: "count", Better: "lower"},

	{Name: "experiments.par_speedup", Unit: "ratio", Better: "higher"},

	{Name: "controlplane.ratemonitor_scan_ns", Unit: "ns", Better: "lower"},
	{Name: "controlplane.sequencer_step_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "controlplane.lease_evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "controlplane.reconfig_plan_ns", Unit: "ns", Better: "lower"},
	{Name: "controlplane.migration_cycle_ns", Unit: "ns", Better: "lower"},

	{Name: "live.start_ms", Unit: "ms", Better: "lower"},
	{Name: "live.stop_ms", Unit: "ms", Better: "lower"},
	{Name: "live.push_ns", Unit: "ns", Better: "lower"},
	{Name: "live.processed_per_replica", Unit: "count", Better: "higher"},
	{Name: "live.dropped", Unit: "count", Better: "lower"},
	{Name: "live.net_dropped", Unit: "count", Better: "lower"},
	{Name: "live.delivered_frac", Unit: "ratio", Better: "higher"},
	{Name: "live.latency_ms_p99_raw", Unit: "ms", Better: "lower"},
	{Name: "live.gen_lateness_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "live.failover_lost_tuples", Unit: "count", Better: "lower"},
	{Name: "live.failover_dup_tuples", Unit: "count", Better: "lower"},
	{Name: "live.recover_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "live.config_switches", Unit: "count", Better: "lower"},

	{Name: "netx.append_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "netx.frame_read_ns", Unit: "ns", Better: "lower"},
	{Name: "netx.conn_send_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netx.conn_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "netx.proxy_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "netx.redial_ms", Unit: "ms", Better: "lower"},
	{Name: "netx.proxy_rtt_over_cmd_rtt", Unit: "ratio", Better: "lower"},

	{Name: "cluster.start_node_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.stats_query_us", Unit: "us", Better: "lower"},
	{Name: "cluster.wire_json_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.frames_per_flip", Unit: "count", Better: "lower"},
	{Name: "cluster.dials", Unit: "count", Better: "lower"},
	{Name: "cluster.drops", Unit: "count", Better: "lower"},
	{Name: "cluster.epochs_per_kill", Unit: "count", Better: "lower"},
	{Name: "cluster.delivered_frac", Unit: "ratio", Better: "higher"},
	{Name: "cluster.pending_max", Unit: "count", Better: "lower"},

	{Name: "bench.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_spans", Unit: "count", Better: "lower"},
	{Name: "bench.solve_span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.matrix_span_coverage", Unit: "ratio", Better: "higher"},
}

// maxFailures caps the failure messages a run keeps; the count is exact.
const maxFailures = 20

// run collects what one benchmark invocation measured.
type run struct {
	tr       *tracer
	sz       sizes
	owner    string // the --workload: the scenario that gets half the time
	metrics  map[string]float64
	samples  map[string]int // how many samples a metric summarises
	tails    map[string]float64
	failures []string

	attempted, failed int64
}

func newRun(owner string, sz sizes, traced bool) *run {
	return &run{
		tr: newTracer(traced), sz: sz, owner: owner,
		metrics: map[string]float64{}, samples: map[string]int{}, tails: map[string]float64{},
	}
}

// set records a metric value with the number of samples behind it.
func (r *run) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// setTiming records a timing as its median and, for the table only, the
// highest percentile the sample count supports.
func (r *run) setTiming(name string, v []float64) {
	r.set(name, median(v), len(v))
	if len(v) > 0 {
		r.tails[name] = percentile(v, topPercentile(len(v)))
	}
}

// ops counts n attempted operations.
func (r *run) ops(n int64) { r.attempted += n }

// fail counts one failed operation and keeps its message.
func (r *run) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one message.
func (r *run) failN(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// missing lists the metrics of defs the run did not produce or produced as
// a non-finite number.
func (r *run) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
