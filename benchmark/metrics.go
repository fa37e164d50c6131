package main

import "strings"

// The four workloads, in the order a run visits them.
var workloadNames = []string{"htap_mix", "oltp_rmw", "wire_kv", "xshard_transfer"}

var workloadWhy = map[string]string{
	"htap_mix":        "open loop, paper §6.1 mix: 2000·W NewOrder/Payment per second preempting TPC-H Q2; the only workload with uintr delivery, context switches and pause/resume on the blocking path",
	"oltp_rmw":        "closed loop through the facade, Get+Put of one uniform key in memory: index, MVCC, oracle, WAL staging and submit→done round trip with nothing to pause — the commit-path floor",
	"wire_kv":         "closed loop over loopback TCP, Zipf(0.99) 90 % Get / 10 % Put on a table four times the hot-key cache: framing, edge admission, cache hits and invalidations, idle-worker wake-up",
	"xshard_transfer": "closed loop on disk, two shards, 20 % of transfers cross shards and commit by 2PC: shard routing, dtx, segmented file WAL and recovery by reopen",
}

func newWorkload(name string) workload {
	switch name {
	case "htap_mix":
		return &htapMix{}
	case "oltp_rmw":
		return &oltpRMW{}
	case "wire_kv":
		return &wireKV{}
	case "xshard_transfer":
		return &xshardTransfer{}
	}
	return nil
}

// e2eMetric is one end-to-end metric: what a user of the database sees.
type e2eMetric struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (absolute for fail_ratio,
	// which is 0 on a healthy run). Bounds are at least three times the
	// run-to-run spread measured on the reference host (README, "Noise
	// floor"); a metric that also stands in for others on workloads they do
	// not apply to shares their bound.
	bound float64
	// workloads the metric applies to; nil means all four.
	workloads []string
	// gate names the metric as BENCHMARK.json carries it when that differs:
	// fail_ratio is gated as ok_ratio = 1 - fail_ratio, because a gated
	// metric may never be 0 and its bound is relative.
	gate string
	// standIn is the metric whose value a gated run reports on a workload
	// this metric does not apply to, scaled by standInScale: the driver's
	// contract wants every gated metric on every workload, and repeating the
	// foreground counterpart adds no verdict the counterpart does not give.
	standIn      string
	standInScale float64
}

var e2eMetrics = []e2eMetric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "lat_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "tps", unit: "op/s", better: "higher", bound: 0.25},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0.002, gate: "ok_ratio"},
	{name: "bg_tps", unit: "txn/s", better: "higher", bound: 0.25, workloads: []string{"htap_mix"}, standIn: "tps", standInScale: 1},
	{name: "bg_p50_ms", unit: "ms", better: "lower", bound: 0.25, workloads: []string{"htap_mix"}, standIn: "lat_p50_us", standInScale: 1e-3},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25, workloads: []string{"wire_kv"}, standIn: "lat_p50_us", standInScale: 1},
	{name: "xs_p50_us", unit: "us", better: "lower", bound: 0.25, workloads: []string{"xshard_transfer"}, standIn: "lat_p50_us", standInScale: 1},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.25},
}

func (m e2eMetric) appliesTo(workload string) bool {
	if m.workloads == nil {
		return true
	}
	for _, w := range m.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// gateName is the metric's name in BENCHMARK.json.
func (m e2eMetric) gateName() string {
	if m.gate != "" {
		return m.gate
	}
	return m.name
}

// gateBetter is its direction there (ok_ratio flips fail_ratio's).
func (m e2eMetric) gateBetter() string {
	if m.gate == "ok_ratio" {
		return "higher"
	}
	return m.better
}

// gateValue is what a gated (--trace 0) run prints for m on this result.
func (m e2eMetric) gateValue(r *passResult) float64 {
	switch {
	case m.gate == "ok_ratio":
		return 1 - r.E2E[m.name].V
	case !m.appliesTo(r.Workload):
		return r.E2E[m.standIn].V * m.standInScale
	}
	return r.E2E[m.name].V
}

// layerMetric is one per-layer metric. src is L (ladder: the layer's public
// functions called in isolation), S (span recorded by the benchmark's own
// wrappers in the traced pass) or C (public counter or histogram read before
// and after the window). moves is the prediction later changes are held to:
// "metric@workload" pairs separated by "; ", "nothing@workload" for a
// predicted no-change.
type layerMetric struct {
	name, unit, better, src, moves string
}

var layerMetrics = []layerMetric{
	{"clock.nanos_ns", "ns", "lower", "L", "tps@oltp_rmw; nothing@wire_kv"},
	{"uintr.post_recognize_ns", "ns", "lower", "L", "lat_p50_us@htap_mix; lat_p50_us@oltp_rmw"},
	{"uintr.delivery_mean_ns", "ns", "lower", "C", "lat_p50_us@htap_mix; lat_p99_us@htap_mix"},
	{"uintr.interrupts_per_fg_txn", "ratio", "lower", "C", "bg_tps@htap_mix"},
	{"pcontext.poll_ns", "ns", "lower", "L", "bg_tps@htap_mix; tps@oltp_rmw"},
	{"pcontext.switch_roundtrip_ns", "ns", "lower", "L", "lat_p50_us@htap_mix; lat_p50_us@oltp_rmw"},
	{"pcontext.passive_switches_per_s", "1/s", "lower", "C", "bg_tps@htap_mix"},
	{"pcontext.active_switches_per_s", "1/s", "lower", "C", "bg_tps@htap_mix"},
	{"queue.mpmc_pushpop_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"queue.spsc_pushpop_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"sched.submit_ns", "ns", "lower", "S", "tps@oltp_rmw; tps@xshard_transfer"},
	{"sched.queue_wait_p50_us", "us", "lower", "S", "lat_p50_us@htap_mix; lat_p99_us@wire_kv; put_p50_us@wire_kv"},
	{"sched.queue_wait_p99_us", "us", "lower", "S", "lat_p99_us@htap_mix; lat_p99_us@wire_kv"},
	{"sched.busy_roundtrip_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"sched.idle_wake_us", "us", "lower", "L", "lat_p99_us@wire_kv; put_p50_us@wire_kv; tps@wire_kv; nothing@htap_mix; nothing@xshard_transfer"},
	{"sched.dropped_fg", "count", "lower", "C", "fail_ratio@htap_mix"},
	{"sched.starvation_skips", "count", "lower", "C", "fail_ratio@htap_mix"},
	{"admission.admit_release_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"index.get_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"index.insert_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"index.scan_ns_per_key", "ns", "lower", "L", "bg_tps@htap_mix"},
	{"index.restarts_per_kop", "ratio", "lower", "C", "lat_p99_us@oltp_rmw; lat_p99_us@htap_mix"},
	{"mvcc.begin_ns", "ns", "lower", "L", "tps@oltp_rmw; tps@xshard_transfer"},
	{"mvcc.read_ns", "ns", "lower", "L", "tps@oltp_rmw; tps@xshard_transfer"},
	{"mvcc.update_commit_ns", "ns", "lower", "L", "tps@oltp_rmw; tps@xshard_transfer"},
	{"mvcc.chain_len_mean", "versions", "lower", "C", "bg_tps@htap_mix; live_heap_mb@htap_mix; live_heap_mb@oltp_rmw"},
	{"wal.commit_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"wal.bytes_per_txn", "B", "lower", "C", "tps@xshard_transfer"},
	{"wal.txns_per_batch", "ratio", "higher", "C", "tps@oltp_rmw; tps@xshard_transfer"},
	{"wal.wait_p99_us", "us", "lower", "C", "lat_p99_us@xshard_transfer"},
	{"engine.get_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"engine.put_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"engine.commit_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"engine.exec_p50_us", "us", "lower", "S", "lat_p50_us@all"},
	{"engine.commit_done_p50_us", "us", "lower", "S", "lat_p50_us@oltp_rmw; xs_p50_us@xshard_transfer"},
	{"engine.aborts_per_ktxn", "ratio", "lower", "C", "fail_ratio@xshard_transfer; tps@xshard_transfer"},
	{"hotcache.lookup_hit_ns", "ns", "lower", "L", "lat_p50_us@wire_kv"},
	{"hotcache.lookup_miss_ns", "ns", "lower", "L", "lat_p50_us@wire_kv"},
	{"hotcache.hit_ratio", "ratio", "higher", "C", "lat_p50_us@wire_kv; tps@wire_kv; nothing@oltp_rmw"},
	{"hotcache.invalidations_per_put", "ratio", "lower", "C", "put_p50_us@wire_kv"},
	{"server.ping_rtt_us", "us", "lower", "L", "lat_p50_us@wire_kv"},
	{"server.get_hit_rtt_us", "us", "lower", "L", "lat_p50_us@wire_kv"},
	{"server.get_miss_rtt_us", "us", "lower", "L", "lat_p99_us@wire_kv"},
	{"server.put_rtt_us", "us", "lower", "L", "put_p50_us@wire_kv"},
	{"server.overhead_us", "us", "lower", "S", "lat_p50_us@wire_kv"},
	{"dtx.single_p50_us", "us", "lower", "S", "lat_p50_us@xshard_transfer"},
	{"dtx.cross_share", "ratio", "lower", "S", "nothing@xshard_transfer"},
	{"dtx.commit_cross_ns", "ns", "lower", "L", "xs_p50_us@xshard_transfer"},
	{"store.log_write_ns_per_kb", "ns", "lower", "L", "tps@xshard_transfer"},
	{"store.replay_us_per_txn", "us", "lower", "C", "setup_s@xshard_transfer"},
	{"store.bytes_per_txn", "B", "lower", "C", "tps@xshard_transfer"},
	{"metrics.record_ns", "ns", "lower", "L", "tps@oltp_rmw"},
	{"tpcc.neworder_exec_p50_us", "us", "lower", "S", "lat_p50_us@htap_mix"},
	{"tpcc.payment_exec_p50_us", "us", "lower", "S", "lat_p50_us@htap_mix"},
	{"tpch.q2_exec_p50_ms", "ms", "lower", "S", "bg_p50_ms@htap_mix; bg_tps@htap_mix"},
	{"tpch.q2_pause_share", "ratio", "lower", "C", "bg_p50_ms@htap_mix; bg_tps@htap_mix"},
	{"proc.alloc_bytes_per_txn", "B", "lower", "C", "lat_p99_us@oltp_rmw; live_heap_mb@oltp_rmw"},
	{"proc.allocs_per_txn", "count", "lower", "C", "lat_p99_us@oltp_rmw; live_heap_mb@oltp_rmw"},
	{"proc.cpu_us_per_txn", "us", "lower", "C", "tps@wire_kv; tps@xshard_transfer"},
	{"proc.gc_pause_total_ms", "ms", "lower", "C", "lat_p99_us@all"},
	{"gen.lag_p99_us", "us", "lower", "S", "nothing@htap_mix"},
	{"trace.overhead_pct", "%", "lower", "S", "tps@all"},
	{"trace.unattributed_pct", "%", "lower", "S", "lat_p50_us@all"},
}

// move is one parsed prediction.
type move struct{ metric, workload string }

func parseMoves(s string) []move {
	var out []move
	for _, part := range strings.Split(s, ";") {
		m, w, _ := strings.Cut(strings.TrimSpace(part), "@")
		out = append(out, move{m, w})
	}
	return out
}

// contractRunSeconds is BENCHMARK.json's run_seconds: the window a driver
// asks for with --seconds.
const contractRunSeconds = 15

// genLagLimitUs is the generator lateness beyond which an htap_mix run is
// printed as invalid rather than as a result.
const genLagLimitUs = 100
