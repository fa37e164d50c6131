package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// contractFile is BENCHMARK.json as the driver reads it.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMetricTables(t *testing.T) {
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(e2eMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q does not match %s", kind, name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	workloads := map[string]bool{"all": true}
	for _, w := range workloadNames {
		check("workload", w, "")
		workloads[w] = true
		if newWorkload(w) == nil {
			t.Errorf("workload %q has no implementation", w)
		}
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, is %d", w, len(why))
		}
	}
	e2e := map[string]bool{"nothing": true}
	for _, m := range e2eMetrics {
		check("end-to-end", m.name, m.unit)
		if m.gate != "" {
			check("end-to-end", m.gate, m.unit)
		}
		e2e[m.name] = true
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
		for _, w := range m.workloads {
			if !workloads[w] {
				t.Errorf("%s applies to unknown workload %q", m.name, w)
			}
		}
		if m.workloads != nil && !e2e[m.standIn] {
			t.Errorf("%s: stand-in %q is not an earlier end-to-end metric", m.name, m.standIn)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is missing")
	}
	for _, m := range layerMetrics {
		check("per-layer", m.name, m.unit)
		if m.src != "L" && m.src != "S" && m.src != "C" {
			t.Errorf("%s: source %q", m.name, m.src)
		}
		for _, mv := range parseMoves(m.moves) {
			if !e2e[mv.metric] {
				t.Errorf("%s: moves names unknown end-to-end metric %q", m.name, mv.metric)
			}
			if !workloads[mv.workload] {
				t.Errorf("%s: moves names unknown workload %q", m.name, mv.workload)
			}
			for _, em := range e2eMetrics {
				if em.name == mv.metric && mv.workload != "all" && !em.appliesTo(mv.workload) {
					t.Errorf("%s: %s does not apply to %s", m.name, mv.metric, mv.workload)
				}
			}
		}
	}
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	c := readContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if strings.Join(c.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", c.Command)
	}
	if c.RunSeconds < 10 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, w.Name, w.Why)
		}
	}
	if len(c.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := c.EndToEnd[i]
		if got.Name != m.gateName() || got.Unit != m.unit || got.Better != m.gateBetter() || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %s %s %s %g", i, got, m.gateName(), m.unit, m.gateBetter(), m.bound)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := c.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}

// TestReadmeNamesEveryMetric keeps the hand-written tables honest.
func TestReadmeNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, w := range workloadNames {
		if !strings.Contains(doc, "`"+w+"`") {
			t.Errorf("README.md does not mention workload %s", w)
		}
	}
	for _, m := range e2eMetrics {
		if !strings.Contains(doc, "`"+m.name+"`") {
			t.Errorf("README.md does not mention %s", m.name)
		}
	}
	for _, m := range layerMetrics {
		if !strings.Contains(doc, "`"+m.name+"`") {
			t.Errorf("README.md does not mention %s", m.name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	var rt reqTrace
	root := rt.add(spOp, -1, 0, 100)
	rt.add(spSubmit, root, 0, 10)
	rt.add(spQueueWait, root, 5, 30) // overlaps the submit span by 5
	exec := rt.add(spExec, root, 30, 80)
	rt.add(spGet, exec, 30, 50)
	rt.add(spPut, exec, 55, 80)
	rt.add(spCommitDone, root, 80, 120) // runs past the root: clipped to it
	var self [maxReqSpans]int64
	rt.selfTimes(&self)
	want := []int64{0, 10, 25, 5, 20, 25, 40}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d (%s): self time %d, want %d", i, spanNames[rt.spans[i].kind], self[i], w)
		}
	}

	var gap reqTrace
	r := gap.add(spOp, -1, 0, 100)
	gap.add(spExec, r, 20, 60)
	gap.selfTimes(&self)
	if self[0] != 60 {
		t.Errorf("root with one child covering 40 of 100: self time %d, want 60", self[0])
	}

	var full reqTrace
	for i := 0; i < maxReqSpans+3; i++ {
		full.add(spGet, -1, 0, 1)
	}
	if !full.over || int(full.n) != maxReqSpans {
		t.Errorf("overflow: over=%v n=%d", full.over, full.n)
	}
	var none *reqTrace
	if none.add(spOp, -1, 0, 1) != -1 {
		t.Error("add on a nil trace must be a no-op")
	}
}

func TestSpanStatsUnattributed(t *testing.T) {
	b := newTraceBuf(4, 1, 0)
	rt := b.next()
	root := rt.add(spOp, -1, 0, 200)
	rt.add(spExec, root, 50, 150)
	var st spanStats
	st.addBuf(b)
	if got := st.unattributedPct(); got != 50 {
		t.Errorf("unattributed = %g %%, want 50", got)
	}
	if st.dur[spExec].n != 1 || st.requests != 1 {
		t.Errorf("exec samples %d, requests %d", st.dur[spExec].n, st.requests)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 98}, {1000, 99}, {1 << 20, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if p := tailPercentile(c.n); c.n >= 20 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%g) = %g, want %g within 1 %%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 255, 256, 257, 1023, 1 << 20, 1<<40 + 12345} {
		lo, width := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d falls in bucket [%g, %g)", v, lo, lo+width)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %g %g %g, want 15 30 45", q1, q2, q3)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(newRnd(1, 1), tableRows, wireTheta)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.next()
		if k >= tableRows {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 carries 1/zeta(n) of the draws, about 8.6 % at theta 0.99.
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if share := float64(top) / draws; share < 0.07 || share > 0.10 {
		t.Errorf("hottest key drew %.3f of the requests, want about 0.086", share)
	}
	a, b := newRnd(7, 3), newRnd(7, 3)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("the same seed must give the same sequence")
		}
	}
}

// TestWorkloadsBothPasses runs every workload through the end-to-end pass and
// the traced pass with a 300 ms window and checks that the outputs verify and
// that every metric the workload owes is there.
func TestWorkloadsBothPasses(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := newEnv(1, dir, traced)
			e.hostWarm = 0
			res, err := runPass(name, e, 300*time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %v", name, traced, res.Problems)
			}
			if res.Attempted == 0 || res.E2E["tps"].N == 0 {
				t.Errorf("%s traced=%v: nothing completed", name, traced)
			}
			for _, m := range e2eMetrics {
				v, ok := res.E2E[m.name]
				switch {
				case m.appliesTo(name) && !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, m.name)
				case m.appliesTo(name) && m.name != "fail_ratio" && !(v.V > 0):
					t.Errorf("%s traced=%v: %s = %g", name, traced, m.name, v.V)
				}
				if g := m.gateValue(res); math.IsNaN(g) || g <= 0 {
					t.Errorf("%s traced=%v: gated %s = %g, must be positive", name, traced, m.gateName(), g)
				}
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
			for _, row := range owedRows[name] {
				if _, ok := res.Layer[row]; !ok {
					t.Errorf("%s: per-layer row %s missing", name, row)
				}
			}
		}
	}
}

// TestRoundsMergeByMedian runs a gated pass of three short rounds: counts are
// summed, every metric of a single pass is there, and nothing fails — on
// htap_mix too, whose window must drain its backlog rather than drop it.
func TestRoundsMergeByMedian(t *testing.T) {
	for _, name := range []string{"htap_mix", "oltp_rmw"} {
		e := newEnv(1, t.TempDir(), false)
		e.hostWarm = 0
		res, err := runRounds(name, e, 600*time.Millisecond, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.Failed != 0 {
			t.Errorf("%s: failed %d of %d, problems %v", name, res.Failed, res.Attempted, res.Problems)
		}
		if n := res.E2E["tps"].N; n == 0 || n > res.Attempted {
			t.Errorf("%s: %d completions summed over the rounds, %d attempted", name, n, res.Attempted)
		}
		for _, m := range e2eMetrics {
			if g := m.gateValue(res); math.IsNaN(g) || g <= 0 {
				t.Errorf("%s: gated %s = %g, must be positive", name, m.gateName(), g)
			}
		}
	}
}

// owedRows are the span- and counter-sourced rows each workload must fill.
var owedRows = map[string][]string{
	"htap_mix": {"gen.lag_p99_us", "sched.submit_ns", "sched.queue_wait_p50_us", "sched.queue_wait_p99_us",
		"uintr.delivery_mean_ns", "uintr.interrupts_per_fg_txn", "pcontext.passive_switches_per_s",
		"pcontext.active_switches_per_s", "sched.dropped_fg", "sched.starvation_skips", "engine.exec_p50_us",
		"tpcc.neworder_exec_p50_us", "tpcc.payment_exec_p50_us", "tpch.q2_exec_p50_ms", "tpch.q2_pause_share",
		"mvcc.chain_len_mean", "trace.unattributed_pct", "trace.overhead_pct", "proc.allocs_per_txn"},
	"oltp_rmw": {"sched.submit_ns", "sched.queue_wait_p50_us", "engine.exec_p50_us", "engine.commit_done_p50_us",
		"wal.bytes_per_txn", "wal.txns_per_batch", "mvcc.chain_len_mean", "uintr.interrupts_per_fg_txn",
		"proc.alloc_bytes_per_txn", "proc.cpu_us_per_txn", "trace.unattributed_pct", "trace.overhead_pct"},
	"wire_kv": {"hotcache.hit_ratio", "hotcache.invalidations_per_put", "server.overhead_us",
		"sched.queue_wait_p50_us", "sched.queue_wait_p99_us", "proc.cpu_us_per_txn", "trace.unattributed_pct"},
	"xshard_transfer": {"dtx.single_p50_us", "dtx.cross_share", "store.replay_us_per_txn", "store.bytes_per_txn",
		"sched.submit_ns", "engine.exec_p50_us", "engine.commit_done_p50_us", "engine.aborts_per_ktxn",
		"wal.bytes_per_txn", "wal.wait_p99_us", "trace.unattributed_pct"},
}

func TestLadderFillsEveryRung(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder takes a few seconds")
	}
	ladder, err := runLadder(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics {
		if m.src != "L" {
			continue
		}
		if v, ok := ladder[m.name]; !ok || !(v.V > 0) || v.N == 0 {
			t.Errorf("ladder rung %s = %+v", m.name, v)
		}
	}
	for name := range ladder {
		found := false
		for _, m := range layerMetrics {
			found = found || m.name == name && m.src == "L"
		}
		if !found {
			t.Errorf("ladder measured %s, which the metric table does not list as an L row", name)
		}
	}
}

// TestContractLine checks the driver's last line: exactly the four keys, and
// under metrics exactly the names BENCHMARK.json lists for that pass.
func TestContractLine(t *testing.T) {
	c := readContract(t)
	res := &passResult{Workload: "oltp_rmw", E2E: map[string]value{}, Layer: map[string]value{}, Attempted: 10}
	for _, m := range e2eMetrics {
		res.E2E[m.name] = value{1.5, 10}
	}
	res.E2E["fail_ratio"] = value{0, 10}
	for _, traced := range []bool{false, true} {
		res.Traced = traced
		line, err := contractLine(res, map[string]value{"clock.nanos_ns": {30, 1}})
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("keys of %s", line)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		if traced {
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := metrics[name]; !ok || m.Value == nil || m.Unit != unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, name, m, unit)
			}
		}
		if !traced {
			if v := *metrics["ok_ratio"].Value; v != 1 {
				t.Errorf("ok_ratio = %g, want 1", v)
			}
			if v := *metrics["bg_p50_ms"].Value; math.Abs(v-1.5e-3) > 1e-12 {
				t.Errorf("bg_p50_ms stands in as %g, want lat_p50_us/1000 = 0.0015", v)
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "wire_kv", "--seed", "7", "--seconds", "10", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || o.seconds != 10 || o.trace != 1 || len(o.workloads) != 1 || o.workloads[0] != "wire_kv" {
		t.Errorf("driver flags parsed as %+v", o)
	}
	if o, err = parseFlags(nil); err != nil || o.trace != -1 || len(o.workloads) != len(workloadNames) || o.duration != 20*time.Second {
		t.Errorf("defaults parsed as %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"-workload", "nope"}, {"-trace", "0"}, {"-trace", "0", "-seconds", "5"},
		{"-workload", "wire_kv,oltp_rmw", "-trace", "0", "-seconds", "5"}, {"-repeat", "0"}, {"extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
}

func TestNoiseTable(t *testing.T) {
	var passes []*passResult
	for _, tps := range []float64{100, 101, 102, 103, 150} {
		passes = append(passes, &passResult{Workload: "oltp_rmw", E2E: map[string]value{"tps": {tps, 1}, "fail_ratio": {0, 1}}})
	}
	rows := noiseTable(passes)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		switch r.Metric {
		case "tps":
			if r.Median != 102 || r.Verdict != "UNRESOLVED" {
				t.Errorf("tps row %+v", r)
			}
		case "fail_ratio":
			if r.Spread != 0 || r.Verdict != "PASS" {
				t.Errorf("fail_ratio row %+v", r)
			}
		}
	}
}
