package preemptdb

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"preemptdb/internal/metrics"
)

// Stats is a point-in-time snapshot of the database's counters, and the one
// table that names them: each field's stat tag is its exposition name and its
// help tag its description. Stats.add, the Prometheus /metrics endpoint, the
// wire protocol's stats frame (String) and the flight bundle's JSON
// (MarshalJSON) all walk the fields, so a counter added here reaches every
// surface. Every field is a uint64 counter except
// WALFailed, a flag that Prometheus sees as a 0/1 gauge.
type Stats struct {
	Commits         uint64 `stat:"commits_total" help:"Committed transactions."`
	Aborts          uint64 `stat:"aborts_total" help:"Aborted transactions."`
	InterruptsSent  uint64 `stat:"interrupts_sent_total" help:"User interrupts issued by the scheduler."`
	StarvationSkips uint64 `stat:"starvation_skips_total" help:"Dispatches withheld by starvation prevention."`
	PassiveSwitches uint64 `stat:"passive_switches_total" help:"Interrupt-driven context switches."`
	ActiveSwitches  uint64 `stat:"active_switches_total" help:"Voluntary context switches."`
	LogBytes        uint64 `stat:"log_bytes_total" help:"Framed WAL bytes written."`
	// Commits/LogBatches is the achieved group-commit fan-in.
	LogBatches       uint64 `stat:"log_batches_total" help:"Group-commit batches written."`
	VacuumedVersions uint64 `stat:"vacuumed_versions_total" help:"Record versions reclaimed by manual and background vacuum."`
	ShedExpired      uint64 `stat:"shed_expired_total" help:"Queued requests dropped at dispatch because their deadline had passed."`
	ShedCanceled     uint64 `stat:"shed_canceled_total" help:"Queued requests dropped at dispatch because the submitter had canceled."`
	// DeadlineRejected is facade-global (admission runs before shard
	// routing), so only DB.Stats reports it, never ShardStats.
	DeadlineRejected uint64 `stat:"deadline_rejected_total" help:"Requests shed at admission because the observed queue delay implied a certain deadline miss."`
	// AbortsConflict..AbortsOther classify every failed request by reason.
	AbortsConflict  uint64 `stat:"aborts_conflict_total" help:"Failed requests whose conflict retry budget ran out."`
	AbortsDeadline  uint64 `stat:"aborts_deadline_total" help:"Failed requests that missed their deadline, queued or running."`
	AbortsCanceled  uint64 `stat:"aborts_canceled_total" help:"Failed requests canceled by their submitter."`
	AbortsQueueFull uint64 `stat:"aborts_queue_full_total" help:"Failed requests rejected up front: scheduler queues full or shed at admission."`
	AbortsWALFailed uint64 `stat:"aborts_wal_failed_total" help:"Failed requests refused because the WAL latched a permanent failure."`
	AbortsOther     uint64 `stat:"aborts_other_total" help:"Failed requests with any other transaction-body error."`
	// WALFailed is ReadOnly's answer at snapshot time.
	WALFailed     bool   `stat:"wal_failed" help:"Whether the WAL has latched a permanent failure (the database is read-only)."`
	IndexRestarts uint64 `stat:"index_restarts_total" help:"Optimistic B+tree operation restarts under concurrent structural change: contention, not errors."`
	// The cache counters stay zero unless Config.CacheBytes enables the cache.
	CacheHits          uint64 `stat:"cache_hits_total" help:"Hot-key cache hits served without entering a scheduler core."`
	CacheMisses        uint64 `stat:"cache_misses_total" help:"Hot-key cache misses that fell through to the MVCC read path."`
	CacheInvalidations uint64 `stat:"cache_invalidations_total" help:"Hot-key cache entries removed by committing writers."`
	// The SLO breach counts include breaches inside the flight recorder's
	// capture cooldown; they stay zero unless Config.SLOHigh/SLOLow is set.
	SLOBreachesHi uint64 `stat:"slo_breaches_hi_total" help:"High-priority end-to-end latency samples over the SLOHigh target."`
	SLOBreachesLo uint64 `stat:"slo_breaches_lo_total" help:"Low-priority end-to-end latency samples over the SLOLow target."`
}

// statFields is the Stats table in declaration order.
var statFields = reflect.VisibleFields(reflect.TypeOf(Stats{}))

// stats snapshots one shard's counters: the one place that says where each
// counter lives. Each counter is read exactly once per call.
func (sh *shard) stats() Stats {
	cache := sh.cache.Counts()
	st := Stats{
		Commits:            sh.eng.Commits(),
		Aborts:             sh.eng.Aborts(),
		InterruptsSent:     sh.sch.InterruptsSent(),
		StarvationSkips:    sh.sch.StarvationSkips(),
		LogBytes:           sh.eng.Log().LSN(),
		LogBatches:         sh.eng.Log().Batches(),
		VacuumedVersions:   sh.eng.Vacuumed(),
		ShedExpired:        sh.sch.ShedExpired(),
		ShedCanceled:       sh.sch.ShedCanceled(),
		AbortsConflict:     sh.aborts.Load(metrics.AbortConflict),
		AbortsDeadline:     sh.aborts.Load(metrics.AbortDeadline),
		AbortsCanceled:     sh.aborts.Load(metrics.AbortCanceled),
		AbortsQueueFull:    sh.aborts.Load(metrics.AbortQueueFull),
		AbortsWALFailed:    sh.aborts.Load(metrics.AbortWALFailed),
		AbortsOther:        sh.aborts.Load(metrics.AbortOther),
		WALFailed:          sh.eng.WALErr() != nil,
		IndexRestarts:      sh.eng.IndexRestarts(),
		CacheHits:          cache.Hits,
		CacheMisses:        cache.Misses,
		CacheInvalidations: cache.Invalidations,
		SLOBreachesHi:      sh.reg.SLOBreaches(metrics.ClassHi),
		SLOBreachesLo:      sh.reg.SLOBreaches(metrics.ClassLo),
	}
	for _, w := range sh.sch.Workers() {
		for i := 0; i < w.Core().NumContexts(); i++ {
			st.PassiveSwitches += w.Core().Context(i).TCB().PassiveSwitches()
			st.ActiveSwitches += w.Core().Context(i).TCB().ActiveSwitches()
		}
	}
	return st
}

// add accumulates o into st (counters sum; WALFailed ORs).
func (st *Stats) add(o Stats) {
	dst, src := reflect.ValueOf(st).Elem(), reflect.ValueOf(o)
	for i := range statFields {
		if d := dst.Field(i); d.Kind() == reflect.Bool {
			d.SetBool(d.Bool() || src.Field(i).Bool())
		} else {
			d.SetUint(d.Uint() + src.Field(i).Uint())
		}
	}
}

// String renders every field as name=value, space-separated, in table order
// (WALFailed as true or false). It is the wire protocol's stats frame.
func (st Stats) String() string {
	var b strings.Builder
	v := reflect.ValueOf(st)
	for i, f := range statFields {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", f.Tag.Get("stat"), v.Field(i))
	}
	return b.String()
}

// MarshalJSON renders every field as one JSON member named by its stat tag,
// in table order: a number, or for WALFailed true or false.
func (st Stats) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	v := reflect.ValueOf(st)
	for i, f := range statFields {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f.Tag.Get("stat"))
		b = fmt.Appendf(b, ":%v", v.Field(i))
	}
	return append(b, '}'), nil
}

// writePrometheus renders every field as one Prometheus family named
// preemptdb_<stat>: a counter, or for WALFailed a 0/1 gauge.
func (st Stats) writePrometheus(w io.Writer) {
	v := reflect.ValueOf(st)
	for i, f := range statFields {
		name, typ, n := "preemptdb_"+f.Tag.Get("stat"), "counter", uint64(0)
		if fv := v.Field(i); fv.Kind() == reflect.Bool {
			typ = "gauge"
			if fv.Bool() {
				n = 1
			}
		} else {
			n = fv.Uint()
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, f.Tag.Get("help"), name, typ, name, n)
	}
}

// ShardStats returns one Stats per shard, each shard's counters snapshotted
// exactly once. The global DeadlineRejected counter is not attributable to a
// shard and is reported only by Stats.
func (db *DB) ShardStats() []Stats {
	out := make([]Stats, len(db.shards))
	for i, sh := range db.shards {
		out[i] = sh.stats()
	}
	return out
}

// Stats returns current counters, aggregated across shards. Every per-shard
// counter is read exactly once per call (a single snapshot per shard, then
// summed), so the aggregate never double-counts or skews against the
// per-shard view returned by ShardStats.
func (db *DB) Stats() Stats {
	var agg Stats
	for _, sh := range db.shards {
		agg.add(sh.stats())
	}
	agg.DeadlineRejected = db.adm.DeadlineRejected()
	return agg
}
