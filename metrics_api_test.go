package preemptdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"preemptdb/internal/pcontext"
)

// metricsWorkload commits a few transactions at both priorities so every
// always-on surface has something to report.
func metricsWorkload(t *testing.T, db *DB) {
	t.Helper()
	db.CreateTable("kv")
	for i := 0; i < 8; i++ {
		p := Low
		if i%2 == 0 {
			p = High
		}
		key := []byte(fmt.Sprintf("k%d", i))
		if err := db.ExecOpts(TxnOptions{Priority: p}, func(tx *Txn) error {
			return tx.Put("kv", key, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDBMetricsSnapshot(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	metricsWorkload(t, db)
	snap := db.Metrics()
	if snap.Hi.Total.Count == 0 || snap.Lo.Total.Count == 0 {
		t.Fatalf("missing end-to-end samples: hi=%d lo=%d",
			snap.Hi.Total.Count, snap.Lo.Total.Count)
	}
	for _, s := range []struct {
		name  string
		count uint64
	}{
		{"hi queue_wait", snap.Hi.QueueWait.Count},
		{"hi exec", snap.Hi.Exec.Count},
		{"lo queue_wait", snap.Lo.QueueWait.Count},
		{"lo exec", snap.Lo.Exec.Count},
	} {
		if s.count == 0 {
			t.Fatalf("no %s samples", s.name)
		}
	}
	if snap.Hi.Total.P50 <= 0 || snap.Hi.Total.P999 < snap.Hi.Total.P50 {
		t.Fatalf("hi total percentiles inconsistent: %+v", snap.Hi.Total)
	}
	// The snapshot must round-trip through JSON with its schema intact.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"hi"`, `"lo"`, `"wal_wait"`, `"uintr_delivery"`, `"p99_ns"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("metrics JSON missing %s", key)
		}
	}
}

func TestDBTraceSnapshot(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	metricsWorkload(t, db)
	data, err := db.TraceSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := pcontext.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestTraceDisabledByConfig(t *testing.T) {
	db := openTest(t, Config{Workers: 1, TraceCapacity: -1})
	if _, err := db.TraceSnapshot(); err == nil {
		t.Fatal("TraceSnapshot must fail when tracing is disabled")
	}
}

func TestMetricsHTTPEndpoints(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt, MetricsAddr: "127.0.0.1:0"})
	metricsWorkload(t, db)
	addr := db.MetricsAddr()
	if addr == nil {
		t.Fatal("no metrics listener address")
	}
	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	prom, _ := get("/metrics")
	for _, want := range []string{
		"preemptdb_phase_latency_nanoseconds{class=\"hi\",phase=\"total\",quantile=\"0.5\"}",
		"preemptdb_uintr_delivery_nanoseconds_count",
		"preemptdb_commits_total",
		"preemptdb_interrupts_sent_total",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom[:min(len(prom), 2000)])
		}
	}

	js, ct := get("/metrics.json")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics.json content-type %q", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(js), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if _, ok := snap["uintr_delivery"]; !ok {
		t.Fatalf("/metrics.json missing uintr_delivery: %s", js)
	}

	tr, _ := get("/trace")
	if err := pcontext.ValidateChromeTrace([]byte(tr)); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}
}

func TestMetricsListenerStopsOnClose(t *testing.T) {
	db, err := Open("", Config{Workers: 1, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := db.MetricsAddr().String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics listener still serving after Close")
	}
}

func TestMetricsAddrBindFailure(t *testing.T) {
	db := openTest(t, Config{Workers: 1, MetricsAddr: "127.0.0.1:0"})
	// Binding the same concrete port again must fail and not leak a half-open DB.
	if _, err := Open("", Config{Workers: 1, MetricsAddr: db.MetricsAddr().String()}); err == nil {
		t.Fatal("expected bind failure on occupied port")
	}
}

// TestStatsTableReachesEverySurface pins the counter table: every Stats
// field names itself once, add folds every field, and /metrics serves every
// field as a family of its own.
func TestStatsTableReachesEverySurface(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeOf(Stats{}))
	seen := map[string]bool{}
	for _, f := range fields {
		name, help := f.Tag.Get("stat"), f.Tag.Get("help")
		if name == "" || help == "" {
			t.Fatalf("Stats.%s has no exposition name or help text", f.Name)
		}
		if seen[name] {
			t.Fatalf("Stats.%s reuses the exposition name %q", f.Name, name)
		}
		seen[name] = true
	}

	// add sums every counter and ORs the flag, whatever the field.
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range fields {
		if av.Field(i).Kind() == reflect.Bool {
			bv.Field(i).SetBool(true)
			continue
		}
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.add(b)
	for i, f := range fields {
		switch fv := av.Field(i); fv.Kind() {
		case reflect.Bool:
			if !fv.Bool() {
				t.Errorf("add lost the flag Stats.%s", f.Name)
			}
		default:
			if got, want := fv.Uint(), uint64(101*(i+1)); got != want {
				t.Errorf("add: Stats.%s = %d, want %d", f.Name, got, want)
			}
		}
	}
	var none Stats
	none.add(Stats{})
	if none.WALFailed {
		t.Error("add set WALFailed from two clear flags")
	}

	db := openTest(t, Config{Workers: 1, MetricsAddr: "127.0.0.1:0"})
	metricsWorkload(t, db)
	resp, err := http.Get("http://" + db.MetricsAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(body)
	for _, f := range fields {
		name := "preemptdb_" + f.Tag.Get("stat")
		for _, want := range []string{
			"# HELP " + name + " " + f.Tag.Get("help") + "\n",
			"# TYPE " + name + " ",
			"\n" + name + " ",
		} {
			if !strings.Contains(prom, want) {
				t.Errorf("/metrics has no %q for Stats.%s", strings.TrimSpace(want), f.Name)
			}
		}
	}
	if !strings.Contains(prom, "\npreemptdb_commits_total 8\n") {
		t.Errorf("/metrics does not count the workload's 8 commits:\n%s", prom)
	}
}
