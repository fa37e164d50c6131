package preemptdb

import (
	"fmt"
	"time"

	"preemptdb/internal/pcontext"
	"preemptdb/internal/sched"
)

// Live scheduler introspection: a consistent, lock-free view of what every
// core is doing right now — which context runs, which is preempted, whose
// transaction occupies it, how starved the paused work is
// — plus queue depths and the admission picture. The per-slot state is
// published by the owning worker through a seqlock (sched.Worker.SlotTable),
// so sampling it from here never touches the commit path and never tears.

// ShardSched is one shard's scheduler view within SchedDebug.
type ShardSched struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Workers holds one entry per scheduler core: queue depths plus the
	// seqlock-sampled slot table (state, class, trace tag, starvation level
	// per execution context).
	Workers []sched.WorkerState `json:"workers"`
}

// SchedDebug is the live scheduler snapshot behind DB.SchedState and the
// /debug/sched endpoint.
type SchedDebug struct {
	// QueueDelayNanos is the admission controller's EWMA of observed
	// scheduling queue delay.
	QueueDelayNanos int64 `json:"queue_delay_nanos"`
	// Shards holds each shard's per-core view.
	Shards []ShardSched `json:"shards"`
}

// SchedState samples the live scheduler state of every shard: per-core queue
// depths and per-slot occupancy (running / preempted, class,
// trace tag, starvation level). The sample is safe to take at any frequency
// while the database runs — slot state is read through a per-slot seqlock the
// workers publish to outside their hot path — and each slot's record is
// internally consistent, though distinct slots are sampled at slightly
// different instants.
func (db *DB) SchedState() SchedDebug {
	dbg := SchedDebug{
		QueueDelayNanos: int64(db.adm.QueueDelayEstimate()),
		Shards:          make([]ShardSched, len(db.shards)),
	}
	for si, sh := range db.shards {
		dbg.Shards[si] = ShardSched{Shard: si, Workers: sh.sch.State()}
	}
	return dbg
}

// traceEvents gathers every shard's per-core trace rings, renumbered
// shard*Workers+core into one flat core namespace (the same convention as
// TraceSnapshot). Returns an error when tracing is disabled.
func (db *DB) traceEvents() ([]pcontext.CoreEvents, error) {
	var all []pcontext.CoreEvents
	for si, sh := range db.shards {
		cores := sh.sch.TraceSnapshot()
		if cores == nil {
			return nil, fmt.Errorf("preemptdb: tracing disabled (TraceCapacity < 0)")
		}
		for _, ce := range cores {
			ce.Core += si * db.cfg.Workers
			all = append(all, ce)
		}
	}
	return all, nil
}

// TraceTxn exports one transaction's causally-linked span tree as a Chrome
// trace-event JSON document (loadable in ui.perfetto.dev): admission queue
// wait, execution with every preemption pause, WAL group-commit wait, and —
// for a cross-shard transaction — the 2PC prepare/resolve spans from every
// participant shard plus the coordinator's decision write, tied together by
// flow arrows. id is the transaction's trace id (Pending.TraceID, or the
// client-supplied TxnOptions.TraceID). The per-core rings are bounded, so a
// transaction's events are only available until ring wrap; export promptly,
// raise Config.TraceCapacity, or set Config.TraceSampling > 0 for complete
// commit-path spans.
//
// wait > 0 bounds a wait for the transaction's terminal event to reach the
// rings — the submitter may see the commit before the worker records
// txn-end — by polling until the export succeeds or wait elapses.
func (db *DB) TraceTxn(id uint64, wait time.Duration) ([]byte, error) {
	deadline := time.Now().Add(wait)
	for {
		cores, err := db.traceEvents()
		if err != nil {
			return nil, err
		}
		data, err := pcontext.ChromeTraceTxn(id, cores)
		if err == nil || !time.Now().Before(deadline) {
			return data, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}
