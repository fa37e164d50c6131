package preemptdb

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"time"

	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
)

// Metrics export surface: the structured snapshot behind DB.Metrics, the
// Chrome trace export behind DB.TraceSnapshot, and the optional
// Config.MetricsAddr HTTP listener that serves both.

// Metrics returns a point-in-time snapshot of the per-phase latency
// decomposition: for each priority class, Summary percentiles for admission
// queue wait, execution, preempted pauses (per pause and per transaction),
// resume latency, group-commit WAL wait, and end-to-end latency — plus the
// uintr delivery latency from SendUIPI post to handler recognition. The
// snapshot JSON-serializes with stable field names. On a sharded database
// the per-shard histograms merge exactly (bucket counts sum), so percentiles
// are those of the combined sample population, never averages of per-shard
// percentiles.
func (db *DB) Metrics() metrics.RegistrySnapshot {
	regs := make([]*metrics.Registry, len(db.shards))
	for i, sh := range db.shards {
		regs[i] = sh.reg
	}
	return metrics.MergedSnapshot(regs)
}

// ShardMetrics returns shard si's own latency snapshot — the per-shard view
// behind the Metrics aggregate (hi-prio p99 per shard, etc.).
func (db *DB) ShardMetrics(si int) metrics.RegistrySnapshot {
	return db.shards[si].reg.Snapshot()
}

// NumShards reports the configured shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// TraceSnapshot renders the per-core scheduling-event rings as a Chrome
// trace-event JSON document (loadable in ui.perfetto.dev or
// chrome://tracing). Safe to call while the database runs; events
// overwritten mid-snapshot are skipped, not torn. On a sharded database the
// shards' cores appear side by side, renumbered shard*Workers+core. Returns
// an error only when tracing is disabled (Config.TraceCapacity < 0).
func (db *DB) TraceSnapshot() ([]byte, error) {
	all, err := db.traceEvents()
	if err != nil {
		return nil, err
	}
	return pcontext.ChromeTrace(all)
}

// MetricsAddr returns the bound address of the Config.MetricsAddr HTTP
// listener, or nil when no listener is running. With "host:0" in the config
// this is how the chosen port is discovered.
func (db *DB) MetricsAddr() net.Addr {
	if db.mln == nil {
		return nil
	}
	return db.mln.Addr()
}

// startMetricsServer binds addr and serves the export endpoints until Close.
func (db *DB) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		db.Metrics().WritePrometheus(w)
		db.Stats().writePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(db.Metrics())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		data, err := db.TraceSnapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	// /trace/txn?id=N exports one transaction's cross-shard span tree.
	mux.HandleFunc("/trace/txn", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "trace/txn: bad or missing id parameter", http.StatusBadRequest)
			return
		}
		data, err := db.TraceTxn(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	// /debug/sched is the live scheduler view: per-core queue depths and
	// seqlock-sampled slot tables (state, class, trace tag, starvation).
	mux.HandleFunc("/debug/sched", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(db.SchedState())
	})
	// /debug/flight serves the most recent SLO-breach flight-recorder bundle.
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		rec := db.LastFlightRecord()
		if rec == nil {
			http.Error(w, "no flight record captured (no SLO breach, or SLOs not configured)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(rec)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	db.mln, db.msrv = ln, srv
	go srv.Serve(ln)
	return nil
}

// stopMetricsServer tears the listener down; idempotent.
func (db *DB) stopMetricsServer() {
	if db.msrv != nil {
		db.msrv.Close()
		db.msrv, db.mln = nil, nil
	}
}
