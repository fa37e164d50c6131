// Package engine is PreemptDB's storage engine: an ERMIA-style (paper §2.2)
// memory-optimized key-value engine with named tables, B+tree primary and
// secondary indexes, multi-versioned records, redo logging, and recovery.
//
// The engine is schema-less: rows are []byte payloads keyed by []byte primary
// keys, with per-workload codecs layered above (internal/tpcc, internal/tpch).
// Every operation takes the transaction whose context makes the work
// preemptible: index traversals and version-chain walks poll the context at
// each step, and commit/abort critical sections run inside non-preemptible
// regions (paper §4.4).
package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"preemptdb/internal/hotcache"
	"preemptdb/internal/index"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/wal"
)

// Engine-level errors.
var (
	// ErrNotFound reports that no visible row exists for the key.
	ErrNotFound = errors.New("engine: not found")
	// ErrDuplicateKey reports an insert over a visible live row.
	ErrDuplicateKey = errors.New("engine: duplicate key")
	// ErrNoTable reports an unknown table name.
	ErrNoTable = errors.New("engine: no such table")
	// ErrNoIndex reports an unknown secondary index name.
	ErrNoIndex = errors.New("engine: no such index")
)

// Config controls engine construction.
type Config struct {
	// Isolation is the isolation level for all transactions. Default:
	// snapshot isolation, the paper's baseline.
	Isolation mvcc.IsolationLevel
	// LogSink receives the redo log; nil discards it (pure in-memory mode,
	// the paper's evaluation configuration).
	LogSink io.Writer
	// SyncEachCommit forces a flush+sync per group-commit batch when the
	// sink supports it; committers are released only once their batch is
	// durable.
	SyncEachCommit bool
	// VacuumInterval, when non-zero, starts a background goroutine that
	// incrementally trims version chains: every tick it walks a bounded
	// slice of VacuumBatch records from a persistent cursor, using the
	// oracle's MinActiveBegin horizon. Stop it with Close.
	VacuumInterval time.Duration
	// VacuumBatch is the number of records examined per vacuum tick
	// (default 1024).
	VacuumBatch int
	// Metrics receives the commit path's WAL-wait latency observations.
	// Default: a fresh registry; pass the scheduler's registry to get one
	// combined per-phase decomposition.
	Metrics *metrics.Registry
	// Cache, when non-nil, is the hot-key read-through cache in front of the
	// MVCC read path: snapshot-isolation point reads consult it before walking
	// a version chain, and every commit invalidates its written keys inside
	// the publication window (hotcache.BeginWrites before the MVCC
	// commit-point store, EndWrites after). Serializable transactions bypass
	// it — a cache hit would skip read-set registration.
	Cache *hotcache.Cache
	// ShardID identifies this engine within a sharded deployment; 2PC
	// prepare/resolve trace spans carry it so a cross-shard transaction's
	// merged trace attributes each leg to its participant shard.
	ShardID int
	// TraceSampling controls transaction-lifecycle trace events on the commit
	// path (the scheduling-event ring itself is owned by the core and always
	// on while attached). 0 (default): span events ride the existing 1-in-32
	// WAL sampling, keeping the instrumented commit path at its measured
	// overhead. >0: record on every commit (full-fidelity forensics; costs a
	// few extra ring stores per commit). <0: suppress lifecycle span events
	// entirely.
	TraceSampling int
}

// Engine is the storage engine. Create with New; it is safe for concurrent
// use by many transaction contexts.
type Engine struct {
	cfg    Config
	oracle *mvcc.Oracle
	log    *wal.Manager

	// mu serializes CreateTable, the catalog's only writer; readers load
	// the published catalog without it.
	mu  sync.Mutex
	cat atomic.Pointer[catalog]

	commits  atomic.Uint64
	aborts   atomic.Uint64
	vacuumed atomic.Uint64
	metrics  *metrics.Registry
	cache    *hotcache.Cache

	// Trace-event policy derived from Config (see Config.TraceSampling);
	// shardID is pre-narrowed for span detail bytes.
	shardID    uint8
	traceAll   bool // record lifecycle spans on every commit
	traceSpans bool // record lifecycle spans at all

	// prepMu/prepLSN track in-flight 2PC prepares: gid → a conservative LSN
	// lower bound captured BEFORE the prepare frame was staged. A disk
	// checkpoint must clamp its replay LSN below the oldest entry, or
	// truncation could drop the only durable copy of an in-doubt
	// transaction's redo.
	prepMu  sync.Mutex
	prepLSN map[uint64]uint64

	// Background vacuum lifecycle; cursor state lives in the goroutine.
	vacStop chan struct{}
	vacWG   sync.WaitGroup
	closed  atomic.Bool
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	sink := cfg.LogSink
	if sink == nil {
		sink = io.Discard
	}
	if cfg.VacuumBatch == 0 {
		cfg.VacuumBatch = 1024
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	e := &Engine{
		cfg:        cfg,
		oracle:     mvcc.NewOracle(),
		log:        wal.NewManager(sink, cfg.SyncEachCommit),
		metrics:    cfg.Metrics,
		cache:      cfg.Cache,
		shardID:    uint8(cfg.ShardID),
		traceAll:   cfg.TraceSampling > 0,
		traceSpans: cfg.TraceSampling >= 0,
	}
	e.cat.Store(&catalog{names: map[string]*Table{}})
	if cfg.VacuumInterval > 0 {
		e.vacStop = make(chan struct{})
		e.vacWG.Add(1)
		go e.vacuumLoop()
	}
	return e
}

// Close stops the background vacuum goroutine (if running) and flushes the
// log. Idempotent; the engine remains usable for reads afterwards, but no
// further GC runs.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	if e.vacStop != nil {
		close(e.vacStop)
		e.vacWG.Wait()
	}
	return e.log.Flush()
}

// Oracle exposes the timestamp oracle (for GC and observability).
func (e *Engine) Oracle() *mvcc.Oracle { return e.oracle }

// Log exposes the WAL manager.
func (e *Engine) Log() *wal.Manager { return e.log }

// WALErr returns the WAL's latched failure, or nil while the log is healthy.
// Once non-nil the engine is effectively read-only: every write operation and
// commit with buffered writes fails fast with the same ErrWALFailed-wrapped
// error, while reads and scans keep working off the in-memory versions.
func (e *Engine) WALErr() error { return e.log.Err() }

// Metrics returns the engine's latency registry (never nil).
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// Commits returns the number of committed transactions.
func (e *Engine) Commits() uint64 { return e.commits.Load() }

// Aborts returns the number of aborted transactions.
func (e *Engine) Aborts() uint64 { return e.aborts.Load() }

// IndexRestarts returns the cumulative optimistic-restart count across every
// table's primary and secondary B+trees — the contention signal for point
// operations and scans.
func (e *Engine) IndexRestarts() uint64 {
	var total uint64
	for _, t := range e.tablesByID() {
		total += t.primary.Restarts()
		t.forEachSecondary(func(si *secondaryIndex) {
			total += si.tree.Restarts()
		})
	}
	return total
}

// KeyExtractor derives a secondary-index key from a row. Secondary indexes
// are non-unique: the engine appends the primary key to the extracted key as
// a uniquifier, so several rows may share an extracted key and scans stay in
// (extracted key, primary key) order. Secondary keys must be immutable for
// the lifetime of the row: updates that change the derived key add a new
// index entry but do not remove the old one (readers re-check row visibility
// through the primary record, so a stale entry can surface a stale key but
// never stale data — callers with mutable indexed columns must re-verify the
// predicate against the returned row).
type KeyExtractor func(primaryKey, row []byte) []byte

// secondaryKey builds the stored index key: extracted key + primary key.
func secondaryKey(extracted, pk []byte) []byte {
	k := make([]byte, 0, len(extracted)+len(pk))
	k = append(k, extracted...)
	return append(k, pk...)
}

// Table is one named table: a primary B+tree from key to record, plus
// optional secondary indexes.
type Table struct {
	id      uint32
	name    string
	primary *index.Tree[*mvcc.Record]

	mu          sync.RWMutex
	secondaries map[string]*secondaryIndex
}

type secondaryIndex struct {
	name    string
	extract KeyExtractor
	tree    *index.Tree[*mvcc.Record]
}

// ID returns the table's numeric id (stable, used in the log).
func (t *Table) ID() uint32 { return t.id }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of primary-index entries (including records whose
// visible version may be a tombstone).
func (t *Table) Len() int { return t.primary.Len() }

// catalog is the engine's set of tables. A published catalog is never
// modified: CreateTable publishes a copy that adds the new table, so every
// reader loads the current one without a lock.
type catalog struct {
	names map[string]*Table
	byID  []*Table // in id order: table i has id i+1
}

// table returns the table with the given id.
func (c *catalog) table(id uint32) (*Table, bool) {
	if id == 0 || int(id) > len(c.byID) {
		return nil, false
	}
	return c.byID[id-1], true
}

// CreateTable creates (or returns the existing) table with the given name.
func (e *Engine) CreateTable(name string) *Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.cat.Load()
	if t, ok := old.names[name]; ok {
		return t
	}
	t := &Table{
		id:          uint32(len(old.byID)) + 1,
		name:        name,
		primary:     index.New[*mvcc.Record](),
		secondaries: make(map[string]*secondaryIndex),
	}
	cat := &catalog{
		names: make(map[string]*Table, len(old.names)+1),
		byID:  append(old.byID[:len(old.byID):len(old.byID)], t),
	}
	for n, tab := range old.names {
		cat.names[n] = tab
	}
	cat.names[name] = t
	e.cat.Store(cat)
	return t
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.cat.Load().names[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// CachedGet serves a point read straight from the hot-key cache — no
// transaction, no oracle slot, no MVCC chain walk. A present entry is always
// the newest committed version (committers remove entries before publishing a
// newer one), so a hit reads as "current committed value at some instant
// during the call". ok is false on a miss or when no cache is configured; the
// caller falls back to a transactional read. The returned slice is shared and
// must be treated as read-only.
func (e *Engine) CachedGet(table string, key []byte) ([]byte, bool) {
	if e.cache == nil {
		return nil, false
	}
	t, err := e.Table(table)
	if err != nil {
		return nil, false
	}
	// ^uint64(0) as the begin timestamp: a fast-path read has no snapshot, and
	// any cached (committed) entry is covered by "now".
	return e.cache.Peek(t.id, key, ^uint64(0))
}

// MustTable returns the named table, panicking if absent; for workload code
// whose schema is created at startup.
func (e *Engine) MustTable(name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// CreateIndex adds a secondary index to the table. Existing rows are NOT
// back-filled; create indexes before loading. The extractor may return nil
// to exclude a row from the index.
func (t *Table) CreateIndex(name string, extract KeyExtractor) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondaries[name]; ok {
		panic(fmt.Sprintf("engine: index %q already exists on %q", name, t.name))
	}
	t.secondaries[name] = &secondaryIndex{name: name, extract: extract, tree: index.New[*mvcc.Record]()}
}

func (t *Table) secondary(name string) (*secondaryIndex, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	si, ok := t.secondaries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q on table %q", ErrNoIndex, name, t.name)
	}
	return si, nil
}

// forEachSecondary iterates the table's secondary indexes.
func (t *Table) forEachSecondary(fn func(*secondaryIndex)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, si := range t.secondaries {
		fn(si)
	}
}

// AttachContext prepares a transaction context for running transactions on
// this engine: a private WAL buffer and a snapshot-tracking slot are placed
// in its CLS, and the engine records itself as the context's owner.
// Idempotent; called implicitly by Begin when needed. A context already owned
// by ANOTHER engine is left untouched — its CLS snapshot slot belongs to the
// other engine's oracle, so this engine must not reuse (or overwrite) it;
// Begin detects the foreign owner and falls back to a guest transaction.
//
// Because everything pooled here (WAL buffer, snapshot slot, and the pooled
// Txn that Begin caches per context) hangs off the Context rather than the
// core or worker, a preempted transaction and the high-priority work that
// runs over it on the same core see separate buffers — attach every context
// of a core (the scheduler facade does) and the isolation falls out of CLS.
func (e *Engine) AttachContext(ctx *pcontext.Context) {
	if ctx == nil {
		return
	}
	cls := ctx.CLS()
	if owner := cls.Get(pcontext.SlotOwner); owner != nil {
		return // ours (idempotent) or another engine's (guest path)
	}
	cls.Set(pcontext.SlotOwner, e)
	if cls.Get(pcontext.SlotLog) == nil {
		cls.Set(pcontext.SlotLog, wal.NewBuffer())
	}
	if cls.Get(pcontext.SlotSnapshot) == nil {
		cls.Set(pcontext.SlotSnapshot, e.oracle.RegisterSlot())
	}
}

// Owns reports whether this engine is the context's CLS owner (the engine
// whose oracle registered the context's snapshot slot).
func (e *Engine) Owns(ctx *pcontext.Context) bool {
	if ctx == nil {
		return false
	}
	return ctx.CLS().Get(pcontext.SlotOwner) == e
}

// DetachContext tears down what AttachContext installed: the snapshot slot
// is returned to the oracle's free list (so the MinActiveBegin scan set stays
// bounded by the number of live contexts) and the CLS entries are cleared.
// Call it when a context will no longer run transactions on this engine; a
// never-attached or nil context is a no-op, as is a context owned by a
// different engine (unregistering a foreign slot into this oracle's free
// list would corrupt both slot tables).
func (e *Engine) DetachContext(ctx *pcontext.Context) {
	if ctx == nil {
		return
	}
	cls := ctx.CLS()
	if owner := cls.Get(pcontext.SlotOwner); owner != nil && owner != e {
		return
	}
	if s, ok := cls.Get(pcontext.SlotSnapshot).(*mvcc.ActiveSlot); ok {
		e.oracle.UnregisterSlot(s)
	}
	cls.Set(pcontext.SlotSnapshot, nil)
	cls.Set(pcontext.SlotLog, nil)
	cls.Set(pcontext.SlotScratch, nil)
	cls.Set(pcontext.SlotOwner, nil)
}

// Vacuum trims version chains across all tables down to what the oldest
// active snapshot can still reach, returning the number of versions
// reclaimed. This is the manual full sweep; engines configured with
// VacuumInterval run the same trim incrementally in the background.
func (e *Engine) Vacuum(ctx *pcontext.Context) int {
	m := e.oracle.MinActiveBegin()
	total := 0
	for _, t := range e.tablesByID() {
		t.primary.Scan(ctx, nil, nil, func(_ []byte, rec *mvcc.Record) bool {
			total += mvcc.Trim(rec, m)
			return true
		})
	}
	e.vacuumed.Add(uint64(total))
	return total
}

// Vacuumed returns the total number of versions reclaimed by manual and
// background vacuum since the engine was created.
func (e *Engine) Vacuumed() uint64 { return e.vacuumed.Load() }

// tablesByID returns the table list in id order (stable cursor order for
// the incremental vacuum). The slice is the published catalog's: read-only.
func (e *Engine) tablesByID() []*Table { return e.cat.Load().byID }

// vacuumLoop is the background incremental vacuum: every VacuumInterval it
// trims a bounded slice of VacuumBatch records, resuming from a persistent
// (table id, key) cursor so long tables are reclaimed across ticks without
// ever stalling foreground work behind a full sweep.
func (e *Engine) vacuumLoop() {
	defer e.vacWG.Done()
	ctx := pcontext.Detached()
	ticker := time.NewTicker(e.cfg.VacuumInterval)
	defer ticker.Stop()
	var curTable uint32 // resume at the first table with id >= curTable
	var curKey []byte   // resume at the first key > curKey (nil: table start)
	for {
		select {
		case <-e.vacStop:
			return
		case <-ticker.C:
		}
		curTable, curKey = e.vacuumSlice(ctx, curTable, curKey, e.cfg.VacuumBatch)
	}
}

// vacuumSlice trims up to batch records starting at the (table, afterKey)
// cursor and returns the advanced cursor, wrapping to the first table after
// a full cycle.
func (e *Engine) vacuumSlice(ctx *pcontext.Context, table uint32, afterKey []byte, batch int) (uint32, []byte) {
	tabs := e.tablesByID()
	if len(tabs) == 0 {
		return 0, nil
	}
	m := e.oracle.MinActiveBegin()
	reclaimed, budget := 0, batch
	for _, t := range tabs {
		if t.id < table {
			continue
		}
		start := afterKey
		if t.id != table {
			start = nil
		}
		var lastKey []byte
		scanned := 0
		t.primary.Scan(ctx, start, nil, func(k []byte, rec *mvcc.Record) bool {
			if scanned >= budget {
				lastKey = append(lastKey[:0], k...) // resume here next tick
				return false
			}
			scanned++
			reclaimed += mvcc.Trim(rec, m)
			return true
		})
		if lastKey != nil {
			e.vacuumed.Add(uint64(reclaimed))
			return t.id, lastKey
		}
		budget -= scanned
		afterKey = nil
		if budget <= 0 && t != tabs[len(tabs)-1] {
			e.vacuumed.Add(uint64(reclaimed))
			return t.id + 1, nil
		}
	}
	e.vacuumed.Add(uint64(reclaimed))
	return 0, nil // full cycle done; wrap around
}

// Recover replays a redo log stream into the engine, rebuilding table
// contents and advancing the timestamp oracle past the highest recovered
// commit. Tables and indexes must be created before calling; a restored
// checkpoint may already hold some of the stream's transactions — each record
// is applied only when its commit timestamp is newer than the record's
// newest committed version (apply-if-newer), so replaying a log region that
// overlaps the checkpoint is idempotent.
//
// The returned ReplayResult reports how far the stream was consumed: a torn
// tail (Torn set) is the benign crash signature — everything before Offset is
// applied and the caller may truncate and resume appending there — while
// mid-stream damage surfaces as ErrCorrupt and the caller must fall back to
// an older checkpoint/log pair rather than trust the partial state.
func (e *Engine) Recover(r io.Reader) (wal.ReplayResult, error) {
	ctx := pcontext.Detached()
	return wal.ReplayStream(r, func(tx wal.CommittedTxn) error {
		return e.applyTxn(ctx, tx)
	})
}

// RecoverPrepared is Recover for a sharded, 2PC-capable log: it additionally
// collects the stream's unresolved prepare records. A prepare frame whose gid
// later reappears as a committed frame (the resolution record) is resolved;
// the leftovers are the in-doubt set the caller must settle against the
// coordinator's decision table — ApplyRecovered to commit, drop to abort
// (presumed abort: no decision anywhere means the coordinator never decided
// to commit).
func (e *Engine) RecoverPrepared(r io.Reader) (wal.ReplayResult, []wal.PreparedTxn, error) {
	ctx := pcontext.Detached()
	pending := make(map[uint64]int) // gid → index in order
	var order []wal.PreparedTxn
	res, err := wal.ReplayStreamPrepared(r,
		func(tx wal.CommittedTxn) error {
			if len(pending) > 0 {
				if i, ok := pending[tx.TxnID]; ok {
					// Resolution record: the prepare committed before the
					// crash; the committed frame carries the authoritative
					// redo, so the prepare itself is fully superseded.
					delete(pending, tx.TxnID)
					order[i].Records = nil // mark resolved
				}
			}
			return e.applyTxn(ctx, tx)
		},
		func(p wal.PreparedTxn) error {
			pending[p.GID] = len(order)
			order = append(order, p)
			return nil
		})
	var inDoubt []wal.PreparedTxn
	for _, p := range order {
		if _, ok := pending[p.GID]; ok {
			inDoubt = append(inDoubt, p)
		}
	}
	return res, inDoubt, err
}

// ApplyRecovered applies one transaction's redo records with apply-if-newer
// semantics and advances the oracle. Recovery-only: the facade uses it to
// commit an in-doubt 2PC participant once the coordinator's decision record
// has been found.
func (e *Engine) ApplyRecovered(tx wal.CommittedTxn) error {
	return e.applyTxn(pcontext.Detached(), tx)
}

// applyTxn installs one recovered transaction's records.
func (e *Engine) applyTxn(ctx *pcontext.Context, tx wal.CommittedTxn) error {
	// Consecutive records for the same table (the common log shape) skip
	// the lookup.
	cat := e.cat.Load()
	var table *Table
	for i := range tx.Records {
		rec := &tx.Records[i]
		if table == nil || table.id != rec.Table {
			t, ok := cat.table(rec.Table)
			if !ok {
				return fmt.Errorf("engine: recovery references unknown table id %d", rec.Table)
			}
			table = t
		}
		mrec, _ := table.primary.GetOrInsert(ctx, rec.Key, mvcc.NewRecord())
		if tx.CTS <= mvcc.NewestCommittedTS(mrec) {
			// Already present — the restored checkpoint included this
			// version (or a newer one). Skipping keeps replay idempotent
			// and preserves InstallCommitted's non-decreasing-cts rule;
			// the checkpoint restored the secondary-index entry too.
			continue
		}
		switch rec.Type {
		case wal.RecDelete:
			mvcc.InstallCommitted(mrec, nil, tx.CTS)
		default:
			mvcc.InstallCommitted(mrec, rec.Value, tx.CTS)
			if rec.Type == wal.RecInsert {
				table.forEachSecondary(func(si *secondaryIndex) {
					if sk := si.extract(rec.Key, rec.Value); sk != nil {
						si.tree.Insert(ctx, secondaryKey(sk, rec.Key), mrec)
					}
				})
			}
		}
	}
	e.oracle.AdvanceTo(tx.CTS)
	return nil
}

// registerPrepare records gid's conservative redo LSN lower bound. Called
// BEFORE the prepare frame is staged so the bound can never land past the
// frame.
func (e *Engine) registerPrepare(gid uint64) {
	e.prepMu.Lock()
	if e.prepLSN == nil {
		e.prepLSN = make(map[uint64]uint64)
	}
	e.prepLSN[gid] = e.log.LSN()
	e.prepMu.Unlock()
}

// unregisterPrepare drops gid from the prepare registry (resolved or rolled
// back).
func (e *Engine) unregisterPrepare(gid uint64) {
	e.prepMu.Lock()
	delete(e.prepLSN, gid)
	e.prepMu.Unlock()
}

// OldestPrepareLSN returns the smallest LSN bound among in-flight prepares,
// and whether any exist. Disk checkpoints clamp their replay LSN to it so WAL
// truncation never discards an unresolved prepare's only durable redo.
func (e *Engine) OldestPrepareLSN() (uint64, bool) {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	var min uint64
	found := false
	for _, lsn := range e.prepLSN {
		if !found || lsn < min {
			min, found = lsn, true
		}
	}
	return min, found
}

// PreparedGIDs returns the global ids of transactions this engine has
// prepared (2PC) but not yet resolved — the in-doubt set at the instant of
// the call. Diagnostic surface (flight recorder, introspection); order is
// unspecified.
func (e *Engine) PreparedGIDs() []uint64 {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	if len(e.prepLSN) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(e.prepLSN))
	for gid := range e.prepLSN {
		out = append(out, gid)
	}
	return out
}
