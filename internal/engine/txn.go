package engine

import (
	"errors"
	"fmt"

	"preemptdb/internal/clock"
	"preemptdb/internal/index"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/wal"
)

// Txn is an engine-level transaction: the MVCC transaction plus redo logging
// and index maintenance. Confined to one transaction context. Context-bound
// transactions are pooled in the context's CLS scratch slot, so the steady
// state commit path performs no heap allocation.
type Txn struct {
	inner  *mvcc.Txn
	eng    *Engine
	ctx    *pcontext.Context
	logBuf *wal.Buffer
	done   bool

	// guestSlot is non-nil on guest transactions — transactions begun on a
	// context owned by a different engine (cross-shard participants). The
	// slot was registered with THIS engine's oracle just for this
	// transaction and is unregistered when it finishes; guests use none of
	// the context's pooled CLS state.
	guestSlot *mvcc.ActiveSlot

	// prepGID is the global 2PC id between PrepareCommit and
	// ResolveCommit/ResolveAbort; zero otherwise.
	prepGID uint64

	// cacheHeld marks a transaction inside the hot-key cache's write window
	// (hotcache.BeginWrites): finish opens it and, for a one-phase commit,
	// closes it in the same call; a prepared 2PC participant keeps it open
	// until ResolveCommit or Abort balances it with EndWrites.
	cacheHeld bool

	// Group-commit state for the finish in flight. step (with prepGID) tells
	// stage which frame to write; stageFn is bound once at construction so
	// handing it to mvcc.Finish does not allocate a closure per commit.
	step    mvcc.Step
	staged  bool
	leader  bool
	stageFn func(cts uint64) error

	// spare is the record the next insert puts in the index. It is replaced
	// only once an insert has used it, so an upsert of an existing key
	// allocates nothing, and a pooled transaction carries it to the next.
	spare *mvcc.Record

	// hint is the owning core's id, the metrics stripe selector. walTick
	// counts this pooled transaction's commits to subsample the WAL-wait
	// probe (see walSampleShift).
	hint    int
	walTick uint64
}

// walSampleShift subsamples the commit path's WAL-wait probe to 1 in
// 2^walSampleShift commits per pooled transaction. The probe (two clock
// reads plus one striped-histogram record) measures ~100ns hot but ~0.5µs in
// the steady-state commit loop, where the histogram's bucket lines are
// always cold — always-on it would double the ~400ns in-memory commit, while
// 1-in-32 amortizes to a measured 3-4%, under the 5% budget. Leaders and
// followers share the same per-Txn tick, so neither path is
// over-represented in the distribution.
const (
	walSampleShift = 5
	walSampleMask  = 1<<walSampleShift - 1
)

// Begin starts a transaction on ctx at the engine's configured isolation
// level. ctx may be nil (tests, loaders), in which case logging still works
// through a throwaway buffer but preemption polling is disabled.
func (e *Engine) Begin(ctx *pcontext.Context) *Txn {
	return e.BeginIso(ctx, e.cfg.Isolation)
}

// BeginIso starts a transaction with an explicit isolation level. On a
// context owned by another engine (a sharded database routing one context's
// operations across several engines) it transparently begins a *guest*
// transaction: a freshly allocated Txn with a throwaway buffer and its own
// just-registered oracle slot, none of the foreign context's pooled CLS
// state. Guests poll the context normally, so they stay preemptible; they
// just skip the zero-allocation pooling that belongs to the owning engine.
func (e *Engine) BeginIso(ctx *pcontext.Context, iso mvcc.IsolationLevel) *Txn {
	if ctx == nil {
		t := &Txn{eng: e, logBuf: wal.NewBuffer()}
		t.stageFn = t.stage
		t.inner = e.oracle.Begin(nil, iso, nil)
		return t
	}
	e.AttachContext(ctx)
	if !e.Owns(ctx) {
		slot := e.oracle.RegisterSlot()
		t := &Txn{eng: e, ctx: ctx, logBuf: wal.NewBuffer(), guestSlot: slot}
		t.stageFn = t.stage
		if core := ctx.Core(); core != nil {
			t.hint = core.ID()
		}
		t.inner = e.oracle.Begin(ctx, iso, slot)
		return t
	}
	cls := ctx.CLS()
	buf := cls.Get(pcontext.SlotLog).(*wal.Buffer)
	slot := cls.Get(pcontext.SlotSnapshot).(*mvcc.ActiveSlot)
	// Reuse the context's cached Txn when its previous transaction finished;
	// a still-open cached txn (caller abandoned it) or one bound to another
	// engine gets left behind and replaced.
	t, _ := cls.Get(pcontext.SlotScratch).(*Txn)
	if t == nil || !t.done || t.eng != e {
		t = &Txn{eng: e, ctx: ctx}
		t.stageFn = t.stage
		if core := ctx.Core(); core != nil {
			t.hint = core.ID()
		}
		cls.Set(pcontext.SlotScratch, t)
	}
	buf.Reset()
	t.logBuf = buf
	t.done = false
	t.inner = e.oracle.Begin(ctx, iso, slot)
	return t
}

// stage frames the redo buffer into the open group-commit batch. Invoked by
// mvcc.Finish after validation assigns the timestamp; a staged buffer is
// always written by its batch leader. The frame follows the step: a one-phase
// commit is a committed frame under the transaction's own id; a prepare is a
// prepare frame under the gid; a resolution record is an ordinary committed
// frame whose id is the gid — replay matches it against the prepare frame to
// take the transaction out of doubt, and applies it (not the prepare) as the
// authoritative redo. On a failed log Stage refuses the enrollment with the
// latched ErrWALFailed, which aborts a commit or prepare before anything is
// published — the transaction's effects neither become visible nor reach the
// log.
func (t *Txn) stage(cts uint64) error {
	if t.logBuf.Len() == 0 {
		return nil // read-only (participant): validation only, nothing to log
	}
	var leader bool
	var err error
	switch t.step {
	case mvcc.StepPrepare:
		leader, err = t.eng.log.StagePrepare(t.prepGID, cts, t.logBuf)
	case mvcc.StepResolve:
		leader, err = t.eng.log.Stage(t.prepGID, cts, t.logBuf)
	default:
		leader, err = t.eng.log.Stage(t.inner.ID(), cts, t.logBuf)
	}
	if err != nil {
		return err
	}
	t.leader, t.staged = leader, true
	return nil
}

// release is the one teardown of a finished transaction: the redo buffer is
// emptied, the MVCC transaction object returns to its slot's pool, and a
// guest transaction gives back its private oracle slot (a no-op for pooled
// owner-context and nil-context transactions).
func (t *Txn) release() {
	t.logBuf.Reset()
	t.inner.Release()
	if t.guestSlot != nil {
		t.eng.oracle.UnregisterSlot(t.guestSlot)
		t.guestSlot = nil
	}
}

// Context returns the transaction's context.
func (t *Txn) Context() *pcontext.Context { return t.ctx }

// Pending returns the number of redo records buffered so far — non-zero means
// the transaction has writes to log at commit.
func (t *Txn) Pending() int { return t.logBuf.Len() }

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.inner.ID() }

// Snapshot returns the begin timestamp.
func (t *Txn) Snapshot() uint64 { return t.inner.Begin() }

// Get returns the row visible to this transaction under key. With a hot-key
// cache configured, snapshot-isolation point reads consult it first — a hit
// returns the exact version this snapshot would have read from the MVCC chain
// (entries are stamped with their version's commit timestamp and only hit
// when begin-ts covers them) without touching the index or version chain.
func (t *Txn) Get(table *Table, key []byte) ([]byte, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	// The cache serves committed state only, so it is bypassed once this
	// transaction has buffered writes (an own uncommitted write to the key
	// must win) and under serializable isolation (a hit would skip read-set
	// registration and blind the commit-time validation).
	if c := t.eng.cache; c != nil && t.logBuf.Len() == 0 && t.inner.Isolation() == mvcc.SnapshotIsolation {
		if v, ok := c.Lookup(table.id, key, t.inner.Begin()); ok {
			return v, nil
		}
		// Miss: capture the fill token BEFORE the MVCC read so a writer
		// publishing during the read discards the fill instead of letting a
		// pre-publication value shadow the new version.
		tok := c.FillBegin(table.id, key)
		rec, ok := table.primary.Get(t.ctx, key)
		if !ok {
			return nil, ErrNotFound
		}
		data, cts, newest, ok := t.inner.ReadForCache(rec)
		if !ok {
			return nil, ErrNotFound
		}
		if newest {
			c.TryFill(tok, table.id, key, data, cts)
		}
		return data, nil
	}
	rec, ok := table.primary.Get(t.ctx, key)
	if !ok {
		return nil, ErrNotFound
	}
	data, ok := t.inner.Read(rec)
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Insert creates a new row. It fails with ErrDuplicateKey when a row visible
// to this transaction already exists, and with ErrWriteConflict when an
// in-flight or snapshot-invisible newer row contends.
func (t *Txn) Insert(table *Table, key, value []byte) error {
	if err := t.eng.log.Err(); err != nil {
		return err // WAL failed: the engine is read-only, refuse before buffering
	}
	rec := t.getOrInsert(table, key)
	if _, ok := t.inner.Read(rec); ok {
		return fmt.Errorf("%w: table %q", ErrDuplicateKey, table.name)
	}
	if err := t.inner.Update(rec, value); err != nil {
		return err
	}
	t.logBuf.Append(wal.RecInsert, table.id, key, value)
	table.forEachSecondary(func(si *secondaryIndex) {
		if sk := si.extract(key, value); sk != nil {
			si.tree.Insert(t.ctx, secondaryKey(sk, key), rec)
		}
	})
	return nil
}

// Update overwrites an existing visible row.
func (t *Txn) Update(table *Table, key, value []byte) error {
	if err := t.eng.log.Err(); err != nil {
		return err
	}
	rec, ok := table.primary.Get(t.ctx, key)
	if !ok {
		return ErrNotFound
	}
	if _, ok := t.inner.Read(rec); !ok {
		return ErrNotFound
	}
	if err := t.inner.Update(rec, value); err != nil {
		return err
	}
	t.logBuf.Append(wal.RecUpdate, table.id, key, value)
	return nil
}

// Put inserts or overwrites the row (upsert).
func (t *Txn) Put(table *Table, key, value []byte) error {
	if err := t.eng.log.Err(); err != nil {
		return err
	}
	rec := t.getOrInsert(table, key)
	_, existed := t.inner.Read(rec)
	if err := t.inner.Update(rec, value); err != nil {
		return err
	}
	if existed {
		t.logBuf.Append(wal.RecUpdate, table.id, key, value)
	} else {
		t.logBuf.Append(wal.RecInsert, table.id, key, value)
		table.forEachSecondary(func(si *secondaryIndex) {
			if sk := si.extract(key, value); sk != nil {
				si.tree.Insert(t.ctx, secondaryKey(sk, key), rec)
			}
		})
	}
	return nil
}

// getOrInsert returns key's record in table, inserting the spare record in
// one descent when the key is absent.
func (t *Txn) getOrInsert(table *Table, key []byte) *mvcc.Record {
	if t.spare == nil {
		t.spare = mvcc.NewRecord()
	}
	rec, inserted := table.primary.GetOrInsert(t.ctx, key, t.spare)
	if inserted {
		t.spare = nil
	}
	return rec
}

// Delete tombstones a visible row.
func (t *Txn) Delete(table *Table, key []byte) error {
	if err := t.eng.log.Err(); err != nil {
		return err
	}
	rec, ok := table.primary.Get(t.ctx, key)
	if !ok {
		return ErrNotFound
	}
	if _, ok := t.inner.Read(rec); !ok {
		return ErrNotFound
	}
	if err := t.inner.Delete(rec); err != nil {
		return err
	}
	t.logBuf.Append(wal.RecDelete, table.id, key, nil)
	return nil
}

// ScanFunc receives rows in key order; return false to stop. Neither slice
// may be modified, and key must not be retained across calls. value is the
// visible version's payload, which nothing writes again once the version is
// installed: it may be kept (the tpcc/tpch row views do) for as long as it is
// only read.
type ScanFunc func(key, value []byte) bool

// Scan visits rows visible to this transaction with from <= key < to in
// ascending primary-key order (nil bounds are open). Tombstones and
// snapshot-invisible rows are skipped. The scan polls the context at every
// record, so long scans — the paper's Q2 — are preemptible throughout; a
// canceled or deadline-expired transaction unwinds with the typed lifecycle
// error within one poll interval.
func (t *Txn) Scan(table *Table, from, to []byte, fn ScanFunc) error {
	return t.scanTree(table.primary, from, to, fn)
}

// ScanDesc is Scan in descending key order.
func (t *Txn) ScanDesc(table *Table, from, to []byte, fn ScanFunc) error {
	return t.scanTreeDesc(table.primary, from, to, fn)
}

// ScanIndex is Scan over a secondary index; fn receives the *index* key and
// the visible row payload.
func (t *Txn) ScanIndex(table *Table, indexName string, from, to []byte, fn ScanFunc) error {
	si, err := table.secondary(indexName)
	if err != nil {
		return err
	}
	return t.scanTree(si.tree, from, to, fn)
}

// ScanIndexDesc is ScanIndex in descending index-key order, the natural
// access path for "newest first" lookups over a (prefix, sequence) index.
func (t *Txn) ScanIndexDesc(table *Table, indexName string, from, to []byte, fn ScanFunc) error {
	si, err := table.secondary(indexName)
	if err != nil {
		return err
	}
	return t.scanTreeDesc(si.tree, from, to, fn)
}

func (t *Txn) scanTree(tree *index.Tree[*mvcc.Record], from, to []byte, fn ScanFunc) error {
	var lcErr error
	tree.Scan(t.ctx, from, to, func(key []byte, rec *mvcc.Record) bool {
		if lcErr = t.ctx.Err(); lcErr != nil {
			return false // unwind mid-scan: canceled or past deadline
		}
		data, ok := t.inner.Read(rec)
		if !ok {
			return true // invisible or tombstone
		}
		return fn(key, data)
	})
	if lcErr == nil {
		// The tree abandons a canceled scan at a leaf boundary without
		// calling back, so a cancellation that lands before the first record
		// is only visible here; without this check a canceled scan would
		// masquerade as a successful empty one.
		lcErr = t.ctx.Err()
	}
	return lcErr
}

func (t *Txn) scanTreeDesc(tree *index.Tree[*mvcc.Record], from, to []byte, fn ScanFunc) error {
	var lcErr error
	tree.ScanDesc(t.ctx, from, to, func(key []byte, rec *mvcc.Record) bool {
		if lcErr = t.ctx.Err(); lcErr != nil {
			return false
		}
		data, ok := t.inner.Read(rec)
		if !ok {
			return true
		}
		return fn(key, data)
	})
	if lcErr == nil {
		lcErr = t.ctx.Err() // see scanTree: pre-first-record cancellation
	}
	return lcErr
}

// finish is the commit pipeline: one-phase commit, 2PC prepare and 2PC resolve
// are its three steps (see mvcc.Step), and it alone owns the latch discipline
// of paper §4.4. Serializable validation (if configured), group-commit
// staging, and atomic publication run inside one non-preemptible region
// because the commit critical section and any WAL latch must not be held
// across a preemption. If this committer became its batch's leader it also
// performs the batch write+sync inside the SAME region — a leader paused while
// holding the WAL's I/O latch would deadlock a same-core higher-priority
// transaction that becomes the next batch's leader. Followers instead park on
// their batch's completion channel outside the region, holding no latch, so
// they can neither block nor be blocked by preemption.
//
// mvccErr is mvcc.Finish's verdict (for commit and prepare: aborted, nothing
// published; for resolve: published, the resolution record could not be
// staged); ioErr is the batch I/O outcome of a staged frame. The caller owns
// the outcome bookkeeping and the teardown.
func (t *Txn) finish(step mvcc.Step) (mvccErr, ioErr error) {
	t.step, t.staged, t.leader = step, false, false
	t.walTick++
	sampled := t.walTick&walSampleMask == 0 || t.eng.traceAll
	var t0 int64
	// Hot-key cache write window: opened strictly before the MVCC
	// commit-point store and closed after it (and before the commit is
	// acknowledged), on success and failure alike. Both hooks run inside the
	// non-preemptible region — they take only short per-shard cache locks, no
	// I/O — so the window cannot be stretched by a preemption. A prepare
	// leaves it open: the in-doubt versions block conflicting writers, and the
	// open window blocks colliding cache fills for the same span, until the
	// resolve step here (publication just happened) or Abort closes it.
	open := step != mvcc.StepResolve && t.eng.cache != nil && t.logBuf.Len() > 0
	pcontext.NonPreemptible(t.ctx, func() {
		if open {
			t.eng.cache.BeginWrites(t.logBuf)
			t.cacheHeld = true
		}
		_, mvccErr = t.inner.Finish(step, t.stageFn)
		if t.cacheHeld && step != mvcc.StepPrepare {
			t.cacheHeld = false
			t.eng.cache.EndWrites(t.logBuf)
		}
		if t.staged && step != mvcc.StepPrepare {
			// The commit-point store has run (mvcc.Finish publishes
			// unconditionally after a successful logFn): tell the WAL so
			// checkpointing's PublishBarrier can see this transaction's
			// versions before trusting an LSN that covers its frame. Prepare
			// frames are not counted — they publish nothing until resolved.
			t.eng.log.Published()
		}
		if t.leader {
			if sampled {
				t0 = clock.Nanos()
			}
			_, ioErr = t.eng.log.LeaderFinish(t.logBuf)
		}
	})
	if t.staged && !t.leader {
		// Let a pending preemption run before parking: the follower holds no
		// latch and (unless preparing) its versions are already published, so
		// this is the natural low-priority wait point of §4.4 — and the only
		// Poll on the commit path.
		t.ctx.Poll()
		if sampled {
			t0 = clock.Nanos()
		}
		_, ioErr = t.eng.log.FollowerWait(t.logBuf)
	}
	if sampled && t.staged {
		// The 1-in-2^walSampleShift WAL-wait probe: every staged step rides
		// the same group-commit pipeline, so its batch wait belongs in the
		// same PhaseWALWait distribution.
		walNs := clock.Nanos() - t0
		class := metrics.ClassLo
		if t.ctx != nil && t.ctx.CLS().HighPrio {
			class = metrics.ClassHi
		}
		t.eng.metrics.Observe(class, metrics.PhaseWALWait, t.hint, walNs)
		if t.eng.traceSpans {
			// Group-commit batch membership on the trace ring: the wait span
			// plus whether this committer led its batch's I/O. Rides the same
			// sampling gate as the metric (always-on under TraceSampling>0);
			// recordAux is a handful of atomic stores, no allocation.
			var lead uint8
			if t.leader {
				lead = 1
			}
			t.ctx.TraceEvent(pcontext.EvWALWait, pcontext.SpanAux(walNs, lead))
		}
	}
	return mvccErr, ioErr
}

// Commit finishes the transaction in one phase (finish's commit step).
//
// Durability ordering caveat: versions are published at staging time, before
// the batch reaches the sink, so a log I/O error surfaces as the returned
// error after the in-memory commit already happened (and is counted as a
// commit). Single-node crash recovery is unaffected — the unlogged suffix is
// simply not replayed — but callers mirroring the log elsewhere must treat a
// non-nil return as "committed here, not durable".
func (t *Txn) Commit() error {
	if t.done {
		return mvcc.ErrTxnDone
	}
	if t.prepGID != 0 {
		return mvcc.ErrAlreadyPrepared // finish with ResolveCommit/ResolveAbort
	}
	if err := t.ctx.Err(); err != nil {
		// Canceled or past deadline at the commit point: abort instead —
		// the pooled Txn, oracle slot and redo buffer are all released by
		// the abort path, and nothing is published or logged.
		t.Abort()
		return err
	}
	t.done = true
	mvccErr, ioErr := t.finish(mvcc.StepCommit)
	t.release()
	if mvccErr != nil {
		t.eng.aborts.Add(1) // mvcc.Finish already rolled back
		return mvccErr
	}
	t.eng.commits.Add(1)
	return ioErr
}

// Abort rolls the transaction back. Abort after Commit (or a second Abort)
// is a harmless no-op so callers can `defer tx.Abort()`.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	if gid := t.prepGID; gid != 0 {
		// Abort of a prepared participant: roll the hold back and drop the
		// checkpoint clamp. No abort record is written — absence of a
		// decision IS the abort (presumed abort), so recovery discards the
		// prepare.
		t.prepGID = 0
		t.eng.unregisterPrepare(gid)
	}
	pcontext.NonPreemptible(t.ctx, func() {
		t.inner.Abort()
		if t.cacheHeld {
			// A prepared participant held the cache's write window across the
			// in-doubt period; the abort closes it (nothing was published, so
			// colliding fills may resume with the old values).
			t.cacheHeld = false
			t.eng.cache.EndWrites(t.logBuf)
		}
	})
	t.release()
	t.eng.aborts.Add(1)
}

// IsConflict reports whether err is a concurrency conflict the caller should
// retry (write-write conflict or serializable validation failure).
func IsConflict(err error) bool {
	return errors.Is(err, mvcc.ErrWriteConflict) || errors.Is(err, mvcc.ErrReadValidation)
}
