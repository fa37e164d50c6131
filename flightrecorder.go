package preemptdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
)

// SLO-triggered flight recorder: when a transaction's end-to-end latency
// breaches its class target (Config.SLOHigh/SLOLow), the breach detector —
// one atomic compare on the metrics recording path — wakes a recorder
// goroutine that captures a diagnosis bundle of everything a tail-latency
// investigation needs: the scheduling-trace rings around the breach, every
// core's slot table, queue depths, starvation levels, in-flight 2PC
// transactions, and the full latency/counter snapshot. Captures are spaced by
// Config.SLOCooldown so a storm produces one bundle, not thousands.

// sloBreach is the hot-path → recorder notification. It carries only what
// the recording site knows; the recorder captures everything else itself.
type sloBreach struct {
	class metrics.Class
	lat   int64
}

// ShardPrepared lists one shard's in-doubt 2PC transactions (prepared,
// unresolved) at capture time.
type ShardPrepared struct {
	Shard int      `json:"shard"`
	GIDs  []uint64 `json:"gids"`
}

// FlightRecord is the diagnosis bundle the flight recorder captures on an
// SLO breach. It JSON-serializes with stable field names; the /debug/flight
// endpoint and Config.FlightRecorderDir files carry exactly this shape.
type FlightRecord struct {
	// Time is the capture instant; Class/LatencyNanos/SLONanos identify the
	// breach that triggered it (the transaction's class, its observed
	// end-to-end latency, and the target it missed).
	Time         time.Time `json:"time"`
	Class        string    `json:"class"`
	LatencyNanos int64     `json:"latency_nanos"`
	SLONanos     int64     `json:"slo_nanos"`
	// Stats and Metrics are the full counter and latency snapshots at
	// capture; Stats carries the per-class SLO breach counts since Open.
	Stats   Stats                    `json:"stats"`
	Metrics metrics.RegistrySnapshot `json:"metrics"`
	// Sched is the live scheduler view: per-core queue depths and
	// seqlock-sampled slot tables with starvation levels.
	Sched SchedDebug `json:"sched"`
	// InFlight2PC lists prepared-but-unresolved cross-shard transactions per
	// shard (empty entries omitted).
	InFlight2PC []ShardPrepared `json:"in_flight_2pc,omitempty"`
	// Trace is the raw per-core scheduling-event rings at capture — the
	// events surrounding the breach, exportable per transaction with
	// pcontext.ChromeTraceTxn. Nil when tracing is disabled.
	Trace []pcontext.CoreEvents `json:"trace,omitempty"`
}

// startFlightRecorder wires the breach detector and starts the recorder
// goroutine. No-op unless an SLO target is configured.
func (db *DB) startFlightRecorder() {
	cfg := db.cfg
	if cfg.SLOHigh <= 0 && cfg.SLOLow <= 0 {
		return
	}
	db.frCh = make(chan sloBreach, 1)
	hook := func(c metrics.Class, lat int64) {
		// Non-blocking: the hook runs on the transaction's worker inside the
		// latency-recording path. A full channel means a capture is already
		// pending; the per-class breach counters still record this one.
		select {
		case db.frCh <- sloBreach{class: c, lat: lat}:
		default:
		}
	}
	for _, sh := range db.shards {
		if cfg.SLOHigh > 0 {
			sh.reg.SetSLO(metrics.ClassHi, int64(cfg.SLOHigh))
		}
		if cfg.SLOLow > 0 {
			sh.reg.SetSLO(metrics.ClassLo, int64(cfg.SLOLow))
		}
		sh.reg.SetBreachHook(hook)
	}
	db.frStop = make(chan struct{})
	db.frWG.Add(1)
	go db.flightRecorderLoop()
}

// stopFlightRecorder detaches the hooks and stops the recorder; idempotent.
func (db *DB) stopFlightRecorder() {
	if db.frStop == nil {
		return
	}
	for _, sh := range db.shards {
		sh.reg.SetBreachHook(nil)
	}
	close(db.frStop)
	db.frWG.Wait()
	db.frStop = nil
}

func (db *DB) flightRecorderLoop() {
	defer db.frWG.Done()
	cooldown := db.cfg.SLOCooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	var last time.Time
	for {
		select {
		case <-db.frStop:
			return
		case b := <-db.frCh:
			now := time.Now()
			if !last.IsZero() && now.Sub(last) < cooldown {
				continue
			}
			last = now
			rec := db.captureFlightRecord(b)
			db.lastFlight.Store(rec)
			if dir := db.cfg.FlightRecorderDir; dir != "" {
				db.writeFlightRecord(dir, rec)
			}
		}
	}
}

// captureFlightRecord assembles the bundle. Everything it reads is a
// concurrent-safe snapshot (atomic counters, histogram snapshots, seqlock
// slot tables, trace-ring copies), so the capture runs while the database
// serves traffic.
func (db *DB) captureFlightRecord(b sloBreach) *FlightRecord {
	var slo int64
	if len(db.shards) > 0 {
		slo = db.shards[0].reg.SLO(b.class)
	}
	rec := &FlightRecord{
		Time:         time.Now(),
		Class:        b.class.String(),
		LatencyNanos: b.lat,
		SLONanos:     slo,
		Stats:        db.Stats(),
		Metrics:      db.Metrics(),
		Sched:        db.SchedState(),
	}
	for si, sh := range db.shards {
		if gids := sh.eng.PreparedGIDs(); len(gids) > 0 {
			rec.InFlight2PC = append(rec.InFlight2PC, ShardPrepared{Shard: si, GIDs: gids})
		}
	}
	if cores, err := db.traceEvents(); err == nil {
		rec.Trace = cores
	}
	return rec
}

// writeFlightRecord persists rec as an indented JSON file under dir
// (created if missing). Failures are reported on stderr, never propagated —
// the recorder must not take the database down.
func (db *DB) writeFlightRecord(dir string, rec *FlightRecord) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "preemptdb: flight recorder: %v\n", err)
		return
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "preemptdb: flight recorder: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%d.json", rec.Time.UnixNano()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "preemptdb: flight recorder: %v\n", err)
	}
}

// LastFlightRecord returns the most recent flight-recorder bundle, or nil
// when no SLO breach has been captured (or no SLO is configured). The record
// is immutable once published; callers may hold it indefinitely.
func (db *DB) LastFlightRecord() *FlightRecord {
	return db.lastFlight.Load()
}
