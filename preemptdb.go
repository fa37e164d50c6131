// Package preemptdb is a memory-optimized, multi-versioned database engine
// with preemptive transaction scheduling via (simulated) userspace
// interrupts — a Go reproduction of "Low-Latency Transaction Scheduling via
// Userspace Interrupts: Why Wait or Yield When You Can Preempt?" (SIGMOD
// 2025).
//
// A DB owns a set of worker cores, each hosting the paper's two transaction
// contexts: a regular context for low-priority work and a preemptive one.
// Transactions are submitted with a priority; under PolicyPreempt, a
// high-priority transaction interrupts an in-progress low-priority one at the
// next instruction boundary, runs on the worker's preemptive context, and then
// resumes the paused transaction — it is paused, never aborted. A
// high-priority transaction is never interrupted itself.
//
// Quick start:
//
//	db, _ := preemptdb.Open("", preemptdb.Config{Policy: preemptdb.PolicyPreempt})
//	defer db.Close()
//	db.CreateTable("kv")
//	db.Run(func(tx *preemptdb.Txn) error {
//	    return tx.Insert("kv", []byte("k"), []byte("v"))
//	})
//	err := db.ExecOpts(preemptdb.TxnOptions{Priority: preemptdb.High}, func(tx *preemptdb.Txn) error {
//	    _, err := tx.Get("kv", []byte("k"))
//	    return err
//	})
package preemptdb

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"preemptdb/internal/admission"
	"preemptdb/internal/clock"
	"preemptdb/internal/dtx"
	"preemptdb/internal/engine"
	"preemptdb/internal/hotcache"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/sched"
	"preemptdb/internal/store"
	"preemptdb/internal/wal"
)

// Policy selects the scheduling discipline (paper §6.1's competing methods).
type Policy uint8

// Scheduling policies.
const (
	// PolicyWait runs transactions to completion; high-priority requests
	// wait for the running transaction (non-preemptive FIFO with a priority
	// queue checked between transactions).
	PolicyWait Policy = iota
	// PolicyCooperative yields to pending high-priority work every
	// YieldInterval record accesses.
	PolicyCooperative
	// PolicyCooperativeHandcrafted yields only at workload-placed
	// Txn.Yield() calls.
	PolicyCooperativeHandcrafted
	// PolicyPreempt is PreemptDB: user interrupts preempt low-priority
	// transactions at instruction granularity.
	PolicyPreempt
)

func (p Policy) String() string { return p.toSched().String() }

func (p Policy) toSched() sched.Policy {
	switch p {
	case PolicyCooperative:
		return sched.PolicyCooperative
	case PolicyCooperativeHandcrafted:
		return sched.PolicyCooperativeHandcrafted
	case PolicyPreempt:
		return sched.PolicyPreempt
	default:
		return sched.PolicyWait
	}
}

// Isolation selects the transaction isolation level.
type Isolation uint8

// Isolation levels.
const (
	// SnapshotIsolation is the default (the paper's baseline, §2.2).
	SnapshotIsolation Isolation = iota
	// ReadCommitted reads the newest committed version at each access.
	ReadCommitted
	// Serializable adds OCC read-set validation at commit.
	Serializable
)

func (i Isolation) toMVCC() mvcc.IsolationLevel {
	switch i {
	case ReadCommitted:
		return mvcc.ReadCommitted
	case Serializable:
		return mvcc.Serializable
	default:
		return mvcc.SnapshotIsolation
	}
}

// Priority classifies a submitted transaction.
type Priority uint8

// Priorities. The paper's design generalizes to more levels via additional
// contexts; two are implemented, as evaluated.
const (
	Low Priority = iota
	High
)

// Config controls Open.
type Config struct {
	// Workers is the number of simulated cores PER SHARD. Default: 2.
	Workers int
	// Shards is the number of hash shards the database is partitioned into
	// (default 1). Each shard owns a full engine instance — B+tree/MVCC
	// state, timestamp oracle, scheduler with its own preemption cores and
	// queues, and WAL stream (under dir/shard-<i>/ when file-backed) — behind
	// this one facade. Keys route to shards by hash; transactions confined to
	// one shard commit exactly as in a single-shard database, while
	// transactions that write to several shards commit atomically via an
	// internal two-phase commit (see DESIGN.md §12). Shards is part of a
	// file-backed database's on-disk layout and must not change across opens
	// of the same directory.
	Shards int
	// Policy is the scheduling discipline. Default PolicyWait.
	Policy Policy
	// Isolation is the isolation level for all transactions.
	Isolation Isolation
	// HiQueueSize / LoQueueSize size the per-worker request queues
	// (defaults 4 and 64).
	HiQueueSize, LoQueueSize int
	// YieldInterval is the cooperative yield period in record accesses
	// (default 10000).
	YieldInterval uint64
	// StarvationThreshold bounds the fraction of a paused low-priority
	// transaction's lifetime spent on high-priority work (default 100,
	// i.e. effectively unbounded; see paper §5).
	StarvationThreshold float64
	// LogSink receives the redo log (nil: in-memory only). Ignored when the
	// database is opened on a directory — the segmented WAL is the sink then.
	LogSink io.Writer
	// Schema recreates the database's tables and secondary indexes (via
	// CreateTable/CreateIndex) on a freshly constructed DB. File-backed
	// recovery calls it before restoring a checkpoint or replaying the WAL —
	// index extractors are code, not data, so the schema cannot be recovered
	// from disk and must be re-declared deterministically (table IDs follow
	// CreateTable order). In-memory opens call it too, as a convenience, so
	// one Config works for both modes. Required to reopen any non-empty
	// file-backed database.
	Schema func(db *DB) error
	// SegmentBytes is the WAL segment rotation size for file-backed
	// databases (default 64 MiB). Segments only rotate at group-commit batch
	// boundaries, so a frame never spans two files.
	SegmentBytes int64
	// SyncEachCommit makes every commit wait for its group-commit batch to
	// be flushed (and synced, when the sink supports it) before returning.
	SyncEachCommit bool
	// VacuumInterval, when non-zero, enables background incremental
	// garbage collection of record version chains at that period.
	VacuumInterval time.Duration
	// MetricsAddr, when non-empty, starts an HTTP listener (e.g.
	// "127.0.0.1:9090") serving /metrics (Prometheus text exposition),
	// /metrics.json (the DB.Metrics snapshot), and /trace (Chrome trace-event
	// JSON, loadable in Perfetto). The listener stops on Close; the bound
	// address is available from DB.MetricsAddr (useful with ":0").
	MetricsAddr string
	// TraceCapacity sizes the per-core scheduling-trace rings (default 4096
	// events per core; negative disables tracing).
	TraceCapacity int
	// TraceSampling controls per-transaction span recording on the commit
	// path (WAL group-commit wait, 2PC prepare/resolve spans). 0 samples
	// 1-in-32 commits, riding the existing metrics sampling with zero extra
	// cost on unsampled commits; > 0 records spans on every commit (for
	// forensic runs and DB.TraceTxn completeness); < 0 suppresses commit-path
	// spans entirely. Scheduler-level events (txn start/end, preemption
	// pause/resume) always trace while TraceCapacity enables the rings.
	TraceSampling int
	// SLOHigh / SLOLow, when > 0, set per-class end-to-end latency SLO
	// targets. A transaction whose total latency exceeds its class target
	// trips the breach detector; subject to SLOCooldown, the flight recorder
	// captures a diagnosis bundle (trace rings, scheduler slot tables, queue
	// depths, in-flight 2PC, full metrics snapshot) retrievable via
	// DB.LastFlightRecord, the /debug/flight endpoint, or as JSON files under
	// FlightRecorderDir.
	SLOHigh, SLOLow time.Duration
	// SLOCooldown is the minimum spacing between flight-recorder captures
	// (default 1s) so a latency storm yields one bundle, not thousands.
	SLOCooldown time.Duration
	// FlightRecorderDir, when non-empty, additionally writes each
	// flight-recorder bundle as an indented JSON file
	// (flight-<unix-nanos>.json) under this directory.
	FlightRecorderDir string
	// CacheBytes, when > 0, enables the hot-key read-through cache in front
	// of the MVCC read path with this total size budget (split evenly across
	// engine shards). Skewed point reads at snapshot isolation hit the cache
	// without entering a scheduler core; commits invalidate their written
	// keys at the publication point. See internal/hotcache.
	CacheBytes int64
}

// ErrClosed reports use of a closed DB, and completes every request Close
// found still queued.
var ErrClosed = sched.ErrStopped

// ErrQueueFull reports that a request was rejected up front: every
// scheduling queue was full, or its deadline cannot be met given the observed
// queue delay (that shed also satisfies IsDeadlineExceeded).
var ErrQueueFull = errors.New("preemptdb: all scheduling queues full")

// errDeadlineShed is what submission returns for a request shed at admission
// because the observed queue delay already exceeds its deadline. It is
// rejected up front like a full queue, and for the deadline's sake, so it
// wraps both.
var errDeadlineShed = fmt.Errorf("preemptdb: queue delay exceeds the deadline: %w: %w", ErrDeadlineExceeded, ErrQueueFull)

// ErrConflict marks a transaction that failed with a concurrency conflict
// after exhausting its automatic retry budget. The underlying engine error
// is wrapped alongside it.
var ErrConflict = errors.New("preemptdb: transaction conflict")

// ErrCanceled reports a transaction canceled by its submitter (via
// Pending.Cancel). It unwinds mid-flight at the next poll.
var ErrCanceled = pcontext.ErrCanceled

// ErrDeadlineExceeded reports a transaction that missed its deadline: shed
// while queued, rejected at admission, or canceled mid-flight at the first
// poll past the deadline.
var ErrDeadlineExceeded = pcontext.ErrDeadlineExceeded

// ErrWALFailed reports that the write-ahead log latched a permanent I/O
// failure. The database degrades to read-only: reads and scans keep working
// off the in-memory versions, while every write operation and commit fails
// fast with an error wrapping this one. The first error also wraps the root
// I/O cause.
var ErrWALFailed = wal.ErrWALFailed

// IsConflict reports whether err was a concurrency conflict (these are
// retried automatically up to maxRetries times; seeing one from Run or
// ExecOpts means the budget was exhausted).
func IsConflict(err error) bool {
	return engine.IsConflict(err) || errors.Is(err, ErrConflict)
}

// IsCanceled reports whether err means the transaction was canceled by its
// submitter.
func IsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// IsDeadlineExceeded reports whether err means the transaction missed its
// deadline.
func IsDeadlineExceeded(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }

// IsWALFailed reports whether err means the write-ahead log has failed and
// the database is read-only.
func IsWALFailed(err error) bool { return errors.Is(err, ErrWALFailed) }

// shard is one hash partition of the database: a complete engine instance —
// MVCC state and indexes, timestamp oracle, WAL stream — plus its own
// scheduler (preemption cores, steal queue, per-class histograms) and
// per-shard counters. Config.Shards == 1 is one shard behind the same facade
// code; only its on-disk layout differs (flat directory, no decision table).
type shard struct {
	eng *engine.Engine
	sch *sched.Scheduler
	// reg is the phase-latency registry shared by this shard's scheduler and
	// engine; DB.Metrics merges the per-shard registries.
	reg *metrics.Registry
	// cache is the engine's hot-key cache (nil when Config.CacheBytes is 0),
	// kept here for its counters.
	cache *hotcache.Cache
	// aborts classifies this shard's failed requests by reason.
	aborts metrics.AbortCounters
	// rrLow round-robins low-priority submissions across this shard's
	// workers; atomic because concurrent submitters share it.
	rrLow atomic.Uint32
	// dir and dlog are set on file-backed databases: the shard's data
	// directory (dir/shard-<i>, or the root directory when Shards == 1) and
	// the segmented WAL log its engine appends to.
	dir  *store.Dir
	dlog *store.Log
	// ckMu serializes CheckpointDisk on this shard: concurrent calls would
	// race the write/prune/truncate sequence over the same directory listing.
	ckMu sync.Mutex
}

// DB is a PreemptDB instance.
type DB struct {
	cfg    Config
	shards []*shard
	adm    *admission.Controller
	// closed is claimed once, by Close; SubmitOpts reads it concurrently.
	closed atomic.Bool
	// rrShard round-robins transactions without a routing key across shards.
	rrShard atomic.Uint32
	// gidBase/gidCtr generate globally-unique 2PC transaction ids: a random
	// 63-bit base per Open plus a counter, with dtx.GIDBit set to keep gids
	// disjoint from oracle-assigned local ids. Decision-table rows are keyed
	// by gid and never deleted, so ids must not repeat across restarts.
	gidBase uint64
	gidCtr  atomic.Uint64
	// ctxPool recycles detached contexts for Run so repeated loader/admin
	// calls reuse one oracle slot and one pooled transaction instead of
	// registering a fresh slot per call.
	ctxPool sync.Pool
	// msrv/mln are the optional MetricsAddr HTTP export listener.
	msrv *http.Server
	mln  net.Listener
	// traceIDs issues database-wide transaction trace ids: shared by submit
	// (which stamps every request up front) and every shard's scheduler (which
	// assigns to requests that bypass submit), so a trace id uniquely names one
	// transaction across all shards and cores.
	traceIDs *atomic.Uint64
	// xsMu/xsGen fence cross-shard 2PC resolution against cross-shard snapshot
	// establishment. The resolution loop of every cross-shard commit runs under
	// the write lock (see dtx.ResolutionGate) and bumps xsGen on release; a
	// multi-shard transaction begins each per-shard participant under the read
	// lock and fails with a retryable conflict when xsGen moved between its
	// first and a later begin — the transaction would otherwise observe a 2PC
	// transaction's writes on one shard but not another.
	xsMu  sync.RWMutex
	xsGen atomic.Uint64
	// Flight-recorder plumbing: breach notifications arrive on frCh (cap 1,
	// non-blocking send from the recording hot path), the recorder goroutine
	// exits on frStop, and lastFlight holds the most recent bundle.
	frCh       chan sloBreach
	frStop     chan struct{}
	frWG       sync.WaitGroup
	lastFlight atomic.Pointer[FlightRecord]
}

// Open creates a database and starts its workers.
//
// dir selects the durability mode. "" runs purely in memory (Config.LogSink,
// when set, still receives the redo stream). A path names a data directory:
// Open creates it if missing, recovers the existing state — newest valid
// checkpoint plus WAL replay, falling back to an older checkpoint when the
// newest fails verification — truncates any torn tail left by a crash, and
// resumes appending to the segmented WAL exactly where the verified stream
// ends. Config.Schema must recreate the schema for recovery to apply the
// replayed records; set Config.SyncEachCommit for commits to be durable at
// the moment they return.
func Open(dir string, cfg Config) (*DB, error) {
	switch {
	case cfg.Shards == 0:
		cfg.Shards = 1
	case cfg.Shards < 0 || cfg.Shards > maxShards:
		return nil, fmt.Errorf("preemptdb: Shards must be in [1,%d], got %d", maxShards, cfg.Shards)
	}
	applyDefaults(&cfg)
	if dir == "" {
		shs := make([]*shard, cfg.Shards)
		for i := range shs {
			shs[i] = newShard(cfg, i, nil)
		}
		db, err := assembleDB(cfg, shs)
		if err != nil {
			return nil, err
		}
		if cfg.Schema != nil {
			if err := cfg.Schema(db); err != nil {
				db.Close()
				return nil, err
			}
		}
		db.ensureDecisionTables()
		return db, nil
	}
	return openSharded(dir, cfg)
}

// applyDefaults normalizes the zero-value config knobs shared by every open
// path.
func applyDefaults(cfg *Config) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.LoQueueSize == 0 {
		cfg.LoQueueSize = 64
	}
}

// newShard builds one shard's engine (no scheduler yet — recovery runs
// before workers exist; see startShard). si selects the shard's slice of the
// optional in-memory LogSink: only shard 0 receives it, because interleaving
// several shards' frames into one observational stream would make it
// unreplayable.
func newShard(cfg Config, si int, dlog *store.Log) *shard {
	sink := cfg.LogSink
	if si > 0 {
		sink = nil
	}
	if dlog != nil {
		sink = dlog
	}
	// One registry across the shard's engine and scheduler, so its slice of
	// DB.Metrics reports the full per-phase decomposition (scheduler phases
	// + WAL wait) in one snapshot.
	reg := metrics.NewRegistry()
	// The hot-key cache is per engine shard — cache shards align with engine
	// shards, so a shard's committers only ever touch their own cache and the
	// size budget splits evenly.
	var cache *hotcache.Cache
	if cfg.CacheBytes > 0 {
		cache = hotcache.New(hotcache.Config{MaxBytes: cfg.CacheBytes / int64(cfg.Shards)})
	}
	eng := engine.New(engine.Config{
		Isolation:      cfg.Isolation.toMVCC(),
		LogSink:        sink,
		SyncEachCommit: cfg.SyncEachCommit,
		VacuumInterval: cfg.VacuumInterval,
		Metrics:        reg,
		Cache:          cache,
		ShardID:        si,
		TraceSampling:  cfg.TraceSampling,
	})
	return &shard{eng: eng, reg: reg, cache: cache, dlog: dlog}
}

// startShard attaches and starts the shard's scheduler. Worker contexts are
// pre-attached to the shard's own engine so it owns their CLS state: pooled
// zero-allocation transactions for same-shard work, with other shards'
// engines transparently beginning guest transactions on the same contexts.
func (sh *shard) startShard(cfg Config, traceIDs *atomic.Uint64) {
	sh.sch = sched.New(sched.Config{
		Policy:              cfg.Policy.toSched(),
		Workers:             cfg.Workers,
		HiQueueSize:         cfg.HiQueueSize,
		LoQueueSize:         cfg.LoQueueSize,
		YieldInterval:       cfg.YieldInterval,
		StarvationThreshold: cfg.StarvationThreshold,
		Metrics:             sh.reg,
		TraceCapacity:       cfg.TraceCapacity,
		TraceIDs:            traceIDs,
	})
	for _, w := range sh.sch.Workers() {
		for i := 0; i < w.Core().NumContexts(); i++ {
			sh.eng.AttachContext(w.Core().Context(i))
		}
	}
	sh.sch.Start()
}

// assembleDB wires recovered (or fresh) shards into a DB and starts their
// schedulers.
func assembleDB(cfg Config, shs []*shard) (*DB, error) {
	// One trace-id sequence for the whole database: submit stamps requests
	// from it, and each shard's scheduler falls back to it for direct
	// submissions, so ids never collide across shards.
	traceIDs := new(atomic.Uint64)
	for _, sh := range shs {
		sh.startShard(cfg, traceIDs)
	}
	// The admission controller has no rate or in-flight cap: the bounded
	// per-worker queues are the overload control. It tracks the queue-delay
	// estimate that lets AdmitDeadline shed requests whose deadline is
	// already lost.
	adm := admission.New(0, 0, 0)
	db := &DB{cfg: cfg, shards: shs, adm: adm, gidBase: rand.Uint64() &^ dtx.GIDBit,
		traceIDs: traceIDs}
	db.startFlightRecorder()
	if cfg.MetricsAddr != "" {
		if err := db.startMetricsServer(cfg.MetricsAddr); err != nil {
			db.Close()
			return nil, fmt.Errorf("preemptdb: metrics listener: %w", err)
		}
	}
	return db, nil
}

// Close stops the workers, releases their engine resources (oracle slots,
// CLS buffers), stops the background vacuum, and flushes the logs. In-flight
// transactions finish; every request still queued, or submitted while Close
// runs, completes with ErrClosed. A second Close returns ErrClosed.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	db.stopMetricsServer()
	db.stopFlightRecorder()
	var err error
	for _, sh := range db.shards {
		if sh.sch != nil {
			sh.sch.Stop()
			for _, w := range sh.sch.Workers() {
				for i := 0; i < w.Core().NumContexts(); i++ {
					// Owner-guarded: each engine only detaches contexts it
					// attached, so this is safe even though cross-shard work
					// ran foreign transactions on these contexts.
					sh.eng.DetachContext(w.Core().Context(i))
				}
			}
		}
		if cerr := sh.eng.Close(); err == nil {
			err = cerr
		}
		if sh.dlog != nil {
			// The engine's close flushed the WAL manager into the segmented
			// log; close the log file after it.
			if cerr := sh.dlog.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// CreateTable creates a table on every shard (idempotent).
func (db *DB) CreateTable(name string) {
	for _, sh := range db.shards {
		sh.eng.CreateTable(name)
	}
}

// CreateIndex adds a secondary index computed by extract (see
// engine.KeyExtractor semantics: non-unique, keys must be immutable per
// row). Create indexes before inserting rows.
func (db *DB) CreateIndex(table, index string, extract func(key, row []byte) []byte) error {
	for _, sh := range db.shards {
		t, err := sh.eng.Table(table)
		if err != nil {
			return err
		}
		t.CreateIndex(index, extract)
	}
	return nil
}

// Run executes fn as a transaction on the calling goroutine, outside the
// scheduler — for loading, admin, and tests. Conflicts retry automatically;
// fn returning nil commits, anything else aborts and is returned.
func (db *DB) Run(fn func(tx *Txn) error) error {
	ctx, _ := db.ctxPool.Get().(*pcontext.Context)
	if ctx == nil {
		ctx = pcontext.Detached()
	}
	defer db.ctxPool.Put(ctx)
	return db.runOn(ctx, fn)
}

// maxRetries bounds automatic conflict retries in Run and SubmitOpts.
const maxRetries = 100

func (db *DB) runOn(ctx *pcontext.Context, fn func(tx *Txn) error) error {
	var err error
	var bo backoff
	for attempt := 0; attempt < maxRetries; attempt++ {
		// A retry follows a conflict. A detached caller (Run) backs off so
		// the holder it ran into gets to commit; a worker context retries at
		// once, because sleeping there would hold the core.
		if attempt > 0 && ctx.Core() == nil {
			bo.wait()
		}
		// Canceled or past deadline: further retries cannot succeed — every
		// new attempt would unwind at its first poll anyway.
		if lcErr := ctx.Err(); lcErr != nil {
			return lcErr
		}
		err = db.attempt(ctx, fn)
		if err == nil || !engine.IsConflict(err) {
			return err
		}
	}
	return fmt.Errorf("%w: %w", ErrConflict, err)
}

// attempt runs fn once. Participants begin lazily as keys route to shards —
// at any shard count, one included — and commit picks plain commit or 2PC by
// how many shards were written.
func (db *DB) attempt(ctx *pcontext.Context, fn func(tx *Txn) error) error {
	tx := &Txn{db: db, ctx: ctx, parts: make([]*engine.Txn, len(db.shards))}
	defer tx.abortParts()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.commitParts()
}

// TxnOptions carries per-request lifecycle options. The zero value means
// "low priority, no deadline".
type TxnOptions struct {
	// Priority classifies the request (default Low).
	Priority Priority
	// Deadline is an absolute wall-clock instant after which the result is
	// worthless (zero = none). An expired request is shed at admission or
	// dispatch, and canceled mid-flight at the first poll past the deadline;
	// either way the submitter sees ErrDeadlineExceeded (a shed at admission
	// returns it from SubmitOpts itself, wrapped together with ErrQueueFull).
	Deadline time.Time
	// Timeout is a relative deadline measured from submission (0 = none).
	// When both are set the earlier instant wins.
	Timeout time.Duration
	// RouteKey, on a sharded database, steers the request to the shard owning
	// this key, so a transaction confined to that key's shard runs on its own
	// scheduler with zero cross-shard coordination. Nil round-robins across
	// shards. Ignored when Shards == 1.
	RouteKey []byte
	// TraceID, when non-zero, names this transaction in the scheduling-trace
	// rings instead of a database-assigned id — clients propagating an
	// end-to-end trace context supply theirs here, and DB.TraceTxn exports the
	// transaction's cross-shard span tree under it. Zero draws a fresh unique
	// id (readable from Pending.TraceID after SubmitOpts).
	TraceID uint64
}

// deadlineNanos converts the options' deadline to the scheduler's absolute
// clock.Nanos domain (0 = none). An already-past deadline maps to the oldest
// representable armed instant so it still reads as expired, not as "none".
func (o TxnOptions) deadlineNanos() int64 {
	pick := func(rel time.Duration) int64 {
		n := clock.Nanos() + int64(rel)
		if n < 1 {
			n = 1
		}
		return n
	}
	var d int64
	if !o.Deadline.IsZero() {
		d = pick(time.Until(o.Deadline))
	}
	if o.Timeout > 0 {
		if t := pick(o.Timeout); d == 0 || t < d {
			d = t
		}
	}
	return d
}

// Pending is a handle to a submitted-but-unfinished request.
type Pending struct {
	req sched.Request
	ch  chan error
}

// Cancel asks the request's transaction to stop: still-queued requests are
// shed before execution, a running one unwinds with ErrCanceled at its next
// poll. Safe to call from any goroutine, repeatedly, and after completion.
// Cancel does not wait; the outcome still arrives through Wait/Done.
func (p *Pending) Cancel() { p.req.Cancel() }

// Wait blocks until the request finishes and returns its outcome. Call it
// at most once (use Done for multi-consumer patterns).
func (p *Pending) Wait() error { return <-p.ch }

// Done exposes the single-delivery outcome channel.
func (p *Pending) Done() <-chan error { return p.ch }

// TraceID returns the id naming this request in the scheduling-trace rings —
// the handle for DB.TraceTxn after (or while) the transaction runs. It is
// assigned at submission, so it is valid immediately.
func (p *Pending) TraceID() uint64 { return p.req.TraceID }

// Timing reports a transaction's worker-stamped latencies: Scheduling is
// submission → first execution, Total is submission → completion. These are
// the in-database latencies the paper measures; they exclude the time the
// *submitting goroutine* waits to be rescheduled by the Go runtime, which on
// an oversubscribed host can dwarf the database's own latency.
type Timing struct {
	Scheduling time.Duration
	Total      time.Duration
}

// Timing returns the request's worker-stamped latencies. It is valid once
// Wait has returned or Done has delivered the outcome.
func (p *Pending) Timing() Timing {
	return Timing{
		Scheduling: time.Duration(p.req.SchedulingLatency()),
		Total:      time.Duration(p.req.Latency()),
	}
}

// classify buckets a finished request's error into the shard's per-reason
// abort counters surfaced by Stats. Cross-shard transactions count once, on
// their routing shard.
func (sh *shard) classify(err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrDeadlineExceeded):
		sh.aborts.Inc(metrics.AbortDeadline)
	case errors.Is(err, ErrCanceled):
		sh.aborts.Inc(metrics.AbortCanceled)
	case IsWALFailed(err):
		sh.aborts.Inc(metrics.AbortWALFailed)
	case IsConflict(err):
		sh.aborts.Inc(metrics.AbortConflict)
	case errors.Is(err, ErrQueueFull):
		sh.aborts.Inc(metrics.AbortQueueFull)
	default:
		sh.aborts.Inc(metrics.AbortOther)
	}
}

// routeShard picks a request's home shard: by key hash when the submitter
// supplied a routing key, round-robin otherwise. The transaction executes on
// that shard's scheduler; its data accesses still reach whatever shards its
// keys hash to.
func (db *DB) routeShard(route []byte) *shard {
	if route != nil {
		return db.shards[dtx.ShardOf(route, len(db.shards))]
	}
	return db.shards[int(db.rrShard.Add(1))%len(db.shards)]
}

// SubmitOpts schedules fn as a transaction with per-request lifecycle
// options and returns a Pending handle for waiting on — or canceling — the
// request. It is the one scheduling entry point: admission, shard routing,
// lifecycle wiring, dispatch, and per-reason accounting happen here.
// High-priority submissions trigger a user interrupt under PolicyPreempt. It
// fails with ErrQueueFull when every worker's queue is full, and with
// ErrClosed once Close has begun.
func (db *DB) SubmitOpts(opts TxnOptions, fn func(tx *Txn) error) (*Pending, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	sh := db.routeShard(opts.RouteKey)
	deadline := opts.deadlineNanos()
	if !db.adm.AdmitDeadline(deadline) {
		sh.aborts.Inc(metrics.AbortQueueFull)
		return nil, errDeadlineShed
	}
	p := &Pending{ch: make(chan error, 1)}
	p.req.Deadline = deadline
	p.req.TraceID = opts.TraceID
	if p.req.TraceID == 0 {
		p.req.TraceID = db.traceIDs.Add(1)
	}
	p.req.Work = func(ctx *pcontext.Context) error {
		return db.runOn(ctx, fn)
	}
	p.req.OnDone = func(r *sched.Request) {
		db.adm.ObserveQueueDelay(r.SchedulingLatency())
		db.adm.Release()
		sh.classify(r.Err)
		p.ch <- r.Err
	}
	ok := false
	if opts.Priority == High {
		ok = sh.sch.SubmitHighBatch([]*sched.Request{&p.req}) == 1
	} else {
		for i := 0; i < db.cfg.Workers && !ok; i++ {
			wid := int(sh.rrLow.Add(1)) % db.cfg.Workers
			ok = sh.sch.SubmitLow(wid, &p.req)
		}
	}
	if !ok {
		db.adm.Release()
		if db.closed.Load() {
			return nil, ErrClosed
		}
		sh.aborts.Inc(metrics.AbortQueueFull)
		return nil, ErrQueueFull
	}
	return p, nil
}

// ExecOpts is SubmitOpts followed by Pending.Wait: it schedules fn and
// returns the transaction's outcome.
func (db *DB) ExecOpts(opts TxnOptions, fn func(tx *Txn) error) error {
	pending, err := db.SubmitOpts(opts, fn)
	if err != nil {
		return err
	}
	return pending.Wait()
}

// backoff is the full-jitter exponential back-off of Run's conflict retries.
// The zero value starts at 20µs.
type backoff time.Duration

// wait sleeps a uniform fraction of the current step, so retrying callers
// decorrelate instead of colliding again, then doubles the step up to 1ms.
func (b *backoff) wait() {
	const base, max = backoff(20 * time.Microsecond), backoff(time.Millisecond)
	if *b < base {
		*b = base
	}
	time.Sleep(time.Duration(rand.Int64N(int64(*b)) + 1))
	if *b *= 2; *b > max {
		*b = max
	}
}

// Vacuum trims record version chains no active snapshot can reach on any
// shard and returns the number of versions reclaimed.
func (db *DB) Vacuum() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.eng.Vacuum(pcontext.Detached())
	}
	return n
}

// checkpointsKept is how many disk checkpoints CheckpointDisk retains. Two
// lets recovery fall back to the previous checkpoint when the newest fails
// verification; WAL segments are only truncated below the oldest retained
// one, so the fallback always finds its log suffix intact.
const checkpointsKept = 2

// errNotFileBacked reports a disk operation on an in-memory database.
var errNotFileBacked = errors.New("preemptdb: database is not file-backed (opened without a directory)")

// CheckpointDisk writes a transactionally consistent checkpoint into the
// database's data directory (atomically: temp file, fsync, rename, directory
// fsync), prunes all but the newest checkpoints, and deletes WAL segments
// wholly covered by the oldest retained one. The checkpoint is fuzzy — its
// replay LSN is captured before the snapshot begins, and recovery's
// apply-if-newer replay makes the overlap idempotent. Safe for concurrent
// use; calls are serialized.
func (db *DB) CheckpointDisk() error {
	if db.shards[0].dir == nil {
		return errNotFileBacked
	}
	for _, sh := range db.shards {
		if err := sh.checkpointDisk(); err != nil {
			return err
		}
	}
	return nil
}

// checkpointDisk checkpoints one shard's stream into its directory.
func (sh *shard) checkpointDisk() error {
	sh.ckMu.Lock()
	defer sh.ckMu.Unlock()
	// Capture the replay start before the snapshot begins, then make the log
	// durable through it: a checkpoint must never name a replay position its
	// own log has not reached on disk.
	lsn0 := sh.eng.Log().LSN()
	// An in-doubt 2PC prepare is older than the log tip but must survive
	// truncation: its prepare frame is the only durable copy of its redo until
	// a resolution lands. Clamp the replay position below the oldest live
	// prepare so segment truncation can never strand an in-doubt transaction.
	if plsn, ok := sh.eng.OldestPrepareLSN(); ok && plsn < lsn0 {
		lsn0 = plsn
	}
	// Every transaction lsn0 covers must have published before the snapshot
	// scan starts, or the checkpoint could miss a commit that replay-from-lsn0
	// will never revisit. engine.Checkpoint runs this barrier itself (before
	// drawing its snapshot timestamp); doing it here too keeps the invariant
	// local to the lsn0 capture it protects.
	sh.eng.Log().PublishBarrier()
	if err := sh.eng.Log().Sync(); err != nil {
		return err
	}
	if err := sh.dir.WriteCheckpoint(lsn0, sh.eng.Checkpoint); err != nil {
		return err
	}
	if err := sh.dir.PruneCheckpoints(checkpointsKept); err != nil {
		return err
	}
	cks, err := sh.dir.Checkpoints()
	if err != nil {
		return err
	}
	return sh.dir.TruncateSegments(cks[0].LSN)
}

// ReadOnly reports whether the database has degraded to read-only because
// any shard's write-ahead log latched a permanent failure. Reads and scans
// keep working; writes fail with an error satisfying IsWALFailed.
func (db *DB) ReadOnly() bool {
	for _, sh := range db.shards {
		if sh.eng.WALErr() != nil {
			return true
		}
	}
	return false
}

// Config returns the configuration the database was opened with, defaults
// applied.
func (db *DB) Config() Config { return db.cfg }

// CachedGet serves a point read straight from the hot-key cache, bypassing
// transaction begin, shard scheduling, and the MVCC read path entirely. It
// returns the newest committed value for the key iff it is cached (a cache
// entry is removed before any newer version publishes, so a hit is always the
// current committed value). ok is false on a miss — or always, when
// Config.CacheBytes is zero — and the caller falls back to a transaction.
// The returned slice is shared and must be treated as read-only.
func (db *DB) CachedGet(table string, key []byte) ([]byte, bool) {
	return db.shards[dtx.ShardOf(key, len(db.shards))].eng.CachedGet(table, key)
}

// Txn is a transaction handle passed to user functions. It is only valid
// for the duration of the function call. On a sharded database each key
// access transparently routes to the owning shard; writes that land on more
// than one shard commit atomically through an internal two-phase commit.
type Txn struct {
	db  *DB
	ctx *pcontext.Context
	// parts are the lazily-begun per-shard participants.
	parts []*engine.Txn
	// snapGen, once a participant exists, holds db.xsGen+1 as observed at the
	// first begin (the +1 keeps zero meaning "no participant yet"). Later
	// begins compare against it: a moved generation means a cross-shard 2PC
	// resolved between this transaction's per-shard snapshots, so the combined
	// view could be half of another transaction — fail with a retryable
	// conflict instead.
	snapGen uint64
}

// errSnapshotRace marks a multi-shard transaction whose lazily-established
// per-shard snapshots straddled a cross-shard 2PC resolution. It wraps the
// engine's conflict condition so the facade's automatic retry loop (and
// IsConflict) treats it like any other transient conflict.
var errSnapshotRace = fmt.Errorf(
	"preemptdb: cross-shard snapshot raced a two-phase commit resolution: %w", mvcc.ErrWriteConflict)

// part returns the participant transaction for shard si, beginning it on
// first touch. On a context owned by another shard's engine the participant
// begins as a guest (own oracle slot, private log buffer) — see
// engine.Engine.BeginIso. Each begin runs under the cross-shard resolution
// gate's read side, and a begin that would land on the far side of a 2PC
// resolution from this transaction's earlier snapshots fails with
// errSnapshotRace (retryable) — see DB.xsMu.
func (t *Txn) part(si int) (*engine.Txn, error) {
	if p := t.parts[si]; p != nil {
		return p, nil
	}
	// With no second shard there is no cross-shard commit to straddle, and
	// the gate is skipped: its read side is one shared reader count that
	// every begin on every core would otherwise update.
	if len(t.parts) > 1 {
		t.db.xsMu.RLock()
		defer t.db.xsMu.RUnlock()
		gen := t.db.xsGen.Load() + 1
		if t.snapGen == 0 {
			t.snapGen = gen
		} else if t.snapGen != gen {
			return nil, errSnapshotRace
		}
	}
	p := t.db.shards[si].eng.Begin(t.ctx)
	t.parts[si] = p
	return p, nil
}

// at resolves a keyed access: the owning shard's participant and its handle
// for the named table.
func (t *Txn) at(table string, key []byte) (*engine.Txn, *engine.Table, error) {
	si := dtx.ShardOf(key, len(t.db.shards))
	tab, err := t.db.shards[si].eng.Table(table)
	if err != nil {
		return nil, nil, err
	}
	p, err := t.part(si)
	if err != nil {
		return nil, nil, err
	}
	return p, tab, nil
}

// Get returns the visible row under key in table.
func (t *Txn) Get(table string, key []byte) ([]byte, error) {
	p, tab, err := t.at(table, key)
	if err != nil {
		return nil, err
	}
	return p.Get(tab, key)
}

// Insert creates a new row; it fails on a visible duplicate key.
func (t *Txn) Insert(table string, key, value []byte) error {
	p, tab, err := t.at(table, key)
	if err != nil {
		return err
	}
	return p.Insert(tab, key, value)
}

// Update overwrites an existing visible row.
func (t *Txn) Update(table string, key, value []byte) error {
	p, tab, err := t.at(table, key)
	if err != nil {
		return err
	}
	return p.Update(tab, key, value)
}

// Put inserts or overwrites (upsert).
func (t *Txn) Put(table string, key, value []byte) error {
	p, tab, err := t.at(table, key)
	if err != nil {
		return err
	}
	return p.Put(tab, key, value)
}

// Delete removes a visible row.
func (t *Txn) Delete(table string, key []byte) error {
	p, tab, err := t.at(table, key)
	if err != nil {
		return err
	}
	return p.Delete(tab, key)
}

// Scan visits visible rows with from <= key < to in key order; fn returns
// false to stop. The scan is preemptible at every record. On a sharded
// database the per-shard scans are merged into one global key order.
func (t *Txn) Scan(table string, from, to []byte, fn func(key, value []byte) bool) error {
	return t.mergeScan(table, "", from, to, false, fn)
}

// ScanDesc is Scan in descending key order.
func (t *Txn) ScanDesc(table string, from, to []byte, fn func(key, value []byte) bool) error {
	return t.mergeScan(table, "", from, to, true, fn)
}

// ScanIndex is Scan over a secondary index; fn receives the index key. On a
// sharded database rows merge in index-key order; rows sharing an index key
// may interleave across shards in arbitrary order.
func (t *Txn) ScanIndex(table, index string, from, to []byte, fn func(key, value []byte) bool) error {
	return t.mergeScan(table, index, from, to, false, fn)
}

// ScanIndexDesc is ScanIndex in descending index-key order.
func (t *Txn) ScanIndexDesc(table, index string, from, to []byte, fn func(key, value []byte) bool) error {
	return t.mergeScan(table, index, from, to, true, fn)
}

// Yield is a handcrafted cooperative yield point (used with
// PolicyCooperativeHandcrafted): if high-priority work is queued on this
// worker, the transaction voluntarily hands over the core and resumes after
// the high-priority batch drains. A no-op on other policies' workers only
// insofar as there is no queued work; it is always safe to call.
func (t *Txn) Yield() { sched.Yield(t.ctx) }

// NonPreemptible runs fn with preemption disabled on this context — the
// application-level escape hatch for short critical sections (paper §4.4).
func (t *Txn) NonPreemptible(fn func()) { pcontext.NonPreemptible(t.ctx, fn) }

// Err returns ErrCanceled or ErrDeadlineExceeded once this transaction's
// request has been canceled or has passed its deadline, and nil otherwise.
// Engine calls already check it at every record access; long user loops
// between engine calls can poll it to unwind sooner.
func (t *Txn) Err() error { return t.ctx.Err() }

// IsNotFound reports whether err is the not-found condition.
func IsNotFound(err error) bool { return errors.Is(err, engine.ErrNotFound) }

// IsDuplicateKey reports whether err is the duplicate-key condition.
func IsDuplicateKey(err error) bool { return errors.Is(err, engine.ErrDuplicateKey) }
