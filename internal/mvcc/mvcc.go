// Package mvcc implements the multi-versioned concurrency control engine
// PreemptDB runs on: an ERMIA-style memory-optimized design (paper §2.2)
// where every record is an ordered new-to-old chain of versions tagged with
// commit timestamps drawn from a centralized counter.
//
// The properties PreemptDB's preemption story depends on are provided here:
//
//   - Reads never take locks. A reader resolves visibility by walking the
//     version chain, so interrupting a long read-mostly transaction wastes no
//     work and blocks nobody.
//   - Commits are atomic through *indirect* commit stamps: an in-flight
//     version points to its writer transaction, and the writer's single
//     atomic state word (status + commit timestamp) is the only publication
//     point. Readers can never observe half a transaction, no matter where a
//     preemption lands.
//   - Write-write conflicts follow first-updater-wins: encountering another
//     transaction's in-flight or too-new version aborts the updater
//     immediately rather than blocking, so a paused (preempted) writer can
//     never make another context wait on it.
//
// Snapshot isolation is the default; read committed and a serializable mode
// (backward OCC validation under a commit critical section, the procedure
// the paper wraps in a non-preemptible region in §4.4) are also provided.
package mvcc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"preemptdb/internal/pcontext"
)

// IsolationLevel selects the read rule and commit-time validation.
type IsolationLevel uint8

const (
	// SnapshotIsolation reads the newest version committed before the
	// transaction began; write-write conflicts abort (first-updater-wins).
	SnapshotIsolation IsolationLevel = iota
	// ReadCommitted reads the newest committed version at each access.
	ReadCommitted
	// Serializable is snapshot isolation plus backward OCC read-set
	// validation under the commit critical section. Predicate (phantom)
	// protection is not implemented, matching classic record-level OCC.
	Serializable
)

func (l IsolationLevel) String() string {
	switch l {
	case SnapshotIsolation:
		return "snapshot"
	case ReadCommitted:
		return "read-committed"
	case Serializable:
		return "serializable"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", uint8(l))
	}
}

// Transaction outcome errors.
var (
	// ErrWriteConflict reports a write-write conflict; the transaction must
	// abort (first-updater-wins, no waiting).
	ErrWriteConflict = errors.New("mvcc: write-write conflict")
	// ErrReadValidation reports serializable read-set validation failure.
	ErrReadValidation = errors.New("mvcc: serializable read validation failed")
	// ErrTxnDone reports use of a committed or aborted transaction.
	ErrTxnDone = errors.New("mvcc: transaction already finished")
	// ErrNotPrepared reports StepResolve on a transaction that never ran
	// StepPrepare (or whose prepare was already consumed).
	ErrNotPrepared = errors.New("mvcc: transaction not prepared")
	// ErrAlreadyPrepared reports StepCommit or a second StepPrepare on a
	// prepared transaction.
	ErrAlreadyPrepared = errors.New("mvcc: transaction already prepared")
)

// Transaction status values packed into Txn.state.
const (
	statusActive uint64 = iota
	statusCommitted
	statusAborted
	// statusCommitting marks the publication window: the commit timestamp has
	// been drawn from the clock but the versions are not yet published. A
	// reader that began after the draw (begin >= cts) must not resolve the
	// writer's versions as "active, invisible" — it would read the pre-commit
	// value for one key and, after publication lands mid-walk, the
	// post-commit value for another, observing half a transaction. resolve
	// waits the window out instead; it contains no I/O (group-commit staging
	// is a latch append, the batch write happens after publication), so the
	// wait is bounded by a few hundred instructions of the committer.
	statusCommitting
	statusBits = 2
	statusMask = 1<<statusBits - 1
)

// Txn is one transaction. Create with Oracle.Begin; finish with exactly one
// of Commit or Abort. A Txn is confined to one context/goroutine.
type Txn struct {
	id    uint64
	begin uint64
	iso   IsolationLevel
	ctx   *pcontext.Context
	// state packs status (low 2 bits) and the commit timestamp (high bits).
	// Storing statusCommitted|cts<<2 is the transaction's atomic commit
	// point; every version it wrote becomes visible at that instant.
	state  atomic.Uint64
	oracle *Oracle
	slot   *ActiveSlot

	// prepared marks a transaction between StepPrepare and StepResolve/Abort:
	// validated (under Serializable) and logged, still Active — its in-flight
	// versions keep blocking conflicting writers and stay invisible to
	// readers, which is exactly the hold a 2PC participant needs while the
	// coordinator decides.
	prepared bool

	writes []writeEntry
	reads  []readEntry
}

type writeEntry struct {
	rec *Record
	ver *Version
}

type readEntry struct {
	rec *Record
	ver *Version // nil when the read observed "no visible version"
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Begin returns the snapshot timestamp.
func (t *Txn) Begin() uint64 { return t.begin }

// Isolation returns the transaction's isolation level.
func (t *Txn) Isolation() IsolationLevel { return t.iso }

// Context returns the transaction context the transaction runs on.
func (t *Txn) Context() *pcontext.Context { return t.ctx }

// NumWrites returns the number of versions this transaction has installed.
func (t *Txn) NumWrites() int { return len(t.writes) }

// status decodes the state word.
func (t *Txn) status() (st, cts uint64) {
	s := t.state.Load()
	return s & statusMask, s >> statusBits
}

// Active reports whether the transaction is still in flight.
func (t *Txn) Active() bool {
	st, _ := t.status()
	return st == statusActive
}

// Version is one entry in a record's new-to-old chain. Immutable after its
// writer finishes, except for lazy commit-stamp propagation.
type Version struct {
	// cts is the commit timestamp; 0 means "consult writer" (in-flight or
	// not yet stamped), ctsAborted marks a version whose writer aborted.
	cts atomic.Uint64
	// writer is the creating transaction, cleared once cts is stamped.
	writer atomic.Pointer[Txn]
	// prev is the next-older version; atomic so GC can trim chains while
	// readers traverse.
	prev atomic.Pointer[Version]
	// data is the payload; nil marks a tombstone (deleted row).
	data []byte
}

const ctsAborted = ^uint64(0)

// Data returns the version payload (nil for tombstones).
func (v *Version) Data() []byte { return v.data }

// resolve returns the version's commitment state: committed (with its
// timestamp), aborted, or in-flight owned by `owner`.
//
// Txn objects are pooled per ActiveSlot, so the writer pointer read here may
// belong to a *recycled* transaction: the previous incarnation stamped every
// version it wrote (cts is monotone — once non-zero it never returns to zero)
// and cleared the writer references before the object was reused. Re-checking
// cts after reading the writer's state word therefore suffices: if cts is
// still zero, the writer has not finished stamping, so it cannot have been
// recycled and its state word is trustworthy; if cts became non-zero, the
// stamped value wins and the (possibly stale) state word is discarded.
func (v *Version) resolve() (cts uint64, committed bool, owner *Txn) {
	for {
		c := v.cts.Load()
		if c == ctsAborted {
			return 0, false, nil
		}
		if c != 0 {
			return c, true, nil
		}
		w := v.writer.Load()
		if w == nil {
			continue // stamped between the two loads; re-read cts
		}
		st, wcts := w.status()
		if v.cts.Load() != 0 {
			continue // w may be recycled; the stamp is authoritative
		}
		switch st {
		case statusCommitted:
			// Help stamp so later readers take the fast path.
			v.cts.CompareAndSwap(0, wcts)
			return wcts, true, nil
		case statusAborted:
			v.cts.CompareAndSwap(0, ctsAborted)
			return 0, false, nil
		case statusCommitting:
			// Publication in flight: the writer has drawn its commit timestamp
			// but not yet stored statusCommitted. Treating the version as
			// active here would let a reader whose begin covers the pending
			// timestamp tear the writer's transaction across keys, so wait the
			// (I/O-free, few-hundred-instruction) window out. Gosched keeps
			// this from livelocking a single-CPU host where the committer
			// needs the processor to finish.
			runtime.Gosched()
			continue
		default:
			return 0, false, w
		}
	}
}

// Record is one logical row: the head of its version chain. Records are
// created once per key (via the table's index) and never freed while indexed.
type Record struct {
	head atomic.Pointer[Version]
}

// NewRecord returns an empty record (no versions).
func NewRecord() *Record { return &Record{} }

// visible reports whether a resolved version should be read at snapshot b.
func visible(cts uint64, committed bool, owner, self *Txn, b uint64, iso IsolationLevel) bool {
	if owner != nil {
		return owner == self // own in-flight writes are visible
	}
	if !committed {
		return false // aborted
	}
	if iso == ReadCommitted {
		return true // newest committed wins
	}
	return cts <= b
}

// Read returns the payload visible to t, walking the version chain from the
// head. ok is false when no visible version exists or the visible version is
// a tombstone. Reads never block; each hop polls the transaction context so
// long chain walks remain preemptible.
func (t *Txn) Read(rec *Record) (data []byte, ok bool) {
	v := t.readVersion(rec)
	if v == nil || v.data == nil {
		return nil, false
	}
	return v.data, true
}

// ReadForCache is Read plus the metadata a read-through cache needs to decide
// whether the result is fillable: cts is the visible version's commit
// timestamp, and newest reports that no *committed* version newer than the
// visible one was skipped during the walk — i.e. the value is the newest
// committed state of the record as of the walk. Reads that observe their own
// in-flight write, a tombstone, or an older-than-newest snapshot version
// return newest=false and must not be cached. Skipped *in-flight* foreign
// versions do not clear newest: if their writer later commits, it does so
// through the cache's invalidation protocol, which the fill's stripe capture
// already races correctly against.
func (t *Txn) ReadForCache(rec *Record) (data []byte, cts uint64, newest, ok bool) {
	newest = true
	for v := rec.head.Load(); v != nil; v = v.prev.Load() {
		t.ctx.Poll()
		c, committed, owner := v.resolve()
		if visible(c, committed, owner, t, t.begin, t.iso) {
			if t.iso == Serializable {
				t.reads = append(t.reads, readEntry{rec: rec, ver: v})
			}
			if v.data == nil {
				return nil, 0, false, false // tombstone
			}
			if owner != nil {
				return v.data, 0, false, true // own uncommitted write
			}
			return v.data, c, newest, true
		}
		if committed {
			// A committed version newer than our snapshot sits above the one
			// we will read: the eventual result is not the newest committed
			// state and must not be cached.
			newest = false
		}
	}
	if t.iso == Serializable {
		t.reads = append(t.reads, readEntry{rec: rec, ver: nil})
	}
	return nil, 0, false, false
}

// readVersion finds the visible version (nil if none) and records it in the
// read set under Serializable.
func (t *Txn) readVersion(rec *Record) *Version {
	var found *Version
	for v := rec.head.Load(); v != nil; v = v.prev.Load() {
		t.ctx.Poll()
		cts, committed, owner := v.resolve()
		if visible(cts, committed, owner, t, t.begin, t.iso) {
			found = v
			break
		}
	}
	if t.iso == Serializable {
		t.reads = append(t.reads, readEntry{rec: rec, ver: found})
	}
	return found
}

// Update installs a new version of rec carrying data (nil = tombstone,
// i.e. delete). It returns ErrWriteConflict when another transaction's
// in-flight or too-new committed version heads the chain.
func (t *Txn) Update(rec *Record, data []byte) error {
	if !t.Active() {
		return ErrTxnDone
	}
	if err := t.ctx.Err(); err != nil {
		return err // canceled or past deadline: stop installing versions
	}
	var nv *Version
	for {
		t.ctx.Poll()
		h := rec.head.Load()
		// Judge the newest version that is not aborted, as readers do. An
		// aborted version can head the chain: its writer's unlink is best
		// effort, and a later aborter's unlink pops back onto it. Stopping
		// there would hide a committed version newer than our snapshot from
		// first-updater-wins, and its update would be lost.
		for v := h; v != nil; v = v.prev.Load() {
			cts, committed, owner := v.resolve()
			if owner == t {
				// Second write to the same record: fold into our in-flight
				// version. It is invisible to every other transaction, so
				// in-place replacement is safe.
				v.data = data
				return nil
			}
			if owner != nil {
				return ErrWriteConflict // in-flight foreign writer
			}
			if committed {
				if cts > t.begin {
					return ErrWriteConflict // first-updater-wins
				}
				break
			}
		}
		// The newest version that counts is visible to us (or there is
		// none): supersede the head.
		if nv == nil {
			if t.slot != nil {
				nv = t.slot.newVersion()
			} else {
				nv = &Version{}
			}
			nv.data = data
			nv.writer.Store(t)
		}
		nv.prev.Store(h)
		if rec.head.CompareAndSwap(h, nv) {
			t.writes = append(t.writes, writeEntry{rec: rec, ver: nv})
			return nil
		}
		// Lost the install race; re-examine the new head, reusing nv.
	}
}

// Delete writes a tombstone version.
func (t *Txn) Delete(rec *Record) error { return t.Update(rec, nil) }

// Oracle issues begin/commit timestamps from a centralized counter (§2.2)
// and tracks active snapshots for version garbage collection.
type Oracle struct {
	clock  atomic.Uint64
	nextID atomic.Uint64

	// slots is an atomically-published snapshot of the slot table. Writers
	// (RegisterSlot growing the table) copy-on-write under mu and publish the
	// new slice; MinActiveBegin — called on every vacuum cycle — iterates a
	// loaded snapshot without taking mu, so GC never blocks registration.
	// Slots are only ever appended, never removed (unregistration recycles
	// them through freeSlots with begin=0), so a stale snapshot misses at
	// most slots registered after the load — and any transaction on such a
	// slot began at or after the clock value already loaded as the horizon
	// bound, exactly the argument Begin's conservative advertisement makes.
	slots atomic.Pointer[[]*ActiveSlot]

	mu        sync.Mutex
	freeSlots []int // indexes of unregistered slots available for reuse

	// commitMu serializes Serializable validation+publication (backward
	// OCC). Snapshot-isolation commits never touch it.
	commitMu sync.Mutex
}

// arenaChunk is the number of versions allocated per arena refill. Update
// hands out versions from the owning slot's arena, so the steady-state write
// path performs one bulk allocation per arenaChunk versions instead of one
// per version; a chunk becomes ordinary garbage once every version in it is
// unreachable (trimmed or superseded and unreferenced).
const arenaChunk = 256

// ActiveSlot advertises one context's active snapshot to the GC and carries
// the context's transaction scratch: a pooled Txn (with its read/write set
// capacity) and the version arena. The scratch is touched only by the slot's
// owning context, so it needs no synchronization — the same confinement
// argument CLS makes for the WAL buffer (paper §4.3).
type ActiveSlot struct {
	begin atomic.Uint64 // 0 = idle

	idx        int  // position in Oracle.slots, for free-list reuse
	registered bool // guarded by Oracle.mu

	cached *Txn      // recycled transaction object, nil when in use
	arena  []Version // bump allocator for new versions
	next   int       // next free index in arena
}

// newVersion returns a zeroed version from the slot's arena.
func (s *ActiveSlot) newVersion() *Version {
	if s.next == len(s.arena) {
		s.arena = make([]Version, arenaChunk)
		s.next = 0
	}
	v := &s.arena[s.next]
	s.next++
	return v
}

// NewOracle returns an oracle with the clock at 0 (first commit gets ts 1).
func NewOracle() *Oracle {
	o := &Oracle{}
	o.slots.Store(&[]*ActiveSlot{})
	return o
}

// Clock returns the current value of the commit-timestamp counter.
func (o *Oracle) Clock() uint64 { return o.clock.Load() }

// Begin starts a transaction at the current snapshot on ctx. The slot, if
// non-nil, marks the snapshot active for GC purposes and supplies the pooled
// transaction object; obtain one per worker context with RegisterSlot and
// pass it to every Begin on that context.
func (o *Oracle) Begin(ctx *pcontext.Context, iso IsolationLevel, slot *ActiveSlot) *Txn {
	var t *Txn
	if slot != nil && slot.cached != nil {
		t = slot.cached
		slot.cached = nil
		t.writes = t.writes[:0]
		t.reads = t.reads[:0]
	} else {
		t = &Txn{}
	}
	t.id = o.nextID.Add(1)
	if slot != nil {
		// Advertise a conservative snapshot bound *before* reading the
		// snapshot itself (both +1 so a begin of 0 stays distinguishable
		// from idle). A GC pass that misses this store computed its horizon
		// from an older clock than the snapshot we are about to take, and
		// one that sees it keeps everything the snapshot can read; either
		// way Trim can never reclaim this transaction's visible versions.
		// Reading the clock first and advertising after would leave a
		// window where neither holds.
		slot.begin.Store(o.clock.Load() + 1)
		t.begin = o.clock.Load()
		slot.begin.Store(t.begin + 1)
	} else {
		t.begin = o.clock.Load()
	}
	t.iso = iso
	t.ctx = ctx
	t.oracle = o
	t.slot = slot
	t.prepared = false
	t.state.Store(statusActive)
	return t
}

// Release returns a finished transaction object to its slot's pool for reuse
// by the next Begin on that slot. Call only after Commit or Abort returned
// and only from the slot's owning context; the Txn must not be used again.
// Safe (a no-op) for slotless or still-active transactions.
func (t *Txn) Release() {
	if t.slot == nil || t.Active() {
		return
	}
	t.slot.cached = t
}

// RegisterSlot returns a snapshot-tracking slot for a worker context, reusing
// a previously unregistered slot when one is free so the slot table — which
// MinActiveBegin scans on every GC cycle — stays bounded by the high-water
// mark of concurrently attached contexts rather than growing forever.
func (o *Oracle) RegisterSlot() *ActiveSlot {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := *o.slots.Load()
	if n := len(o.freeSlots); n > 0 {
		s := cur[o.freeSlots[n-1]]
		o.freeSlots = o.freeSlots[:n-1]
		s.registered = true
		return s
	}
	s := &ActiveSlot{idx: len(cur), registered: true}
	// Copy-on-write publication: concurrent MinActiveBegin scans keep
	// iterating the old snapshot, which is safe (see the slots field doc).
	grown := make([]*ActiveSlot, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = s
	o.slots.Store(&grown)
	return s
}

// UnregisterSlot releases a slot obtained from RegisterSlot back to the
// oracle for reuse. The slot must be idle (no transaction in flight on it).
// Double-unregistration is a harmless no-op.
func (o *Oracle) UnregisterSlot(s *ActiveSlot) {
	if s == nil {
		return
	}
	s.begin.Store(0)
	o.mu.Lock()
	defer o.mu.Unlock()
	if !s.registered {
		return
	}
	s.registered = false
	o.freeSlots = append(o.freeSlots, s.idx)
}

// SlotCount returns the size of the slot table and how many entries are free
// for reuse (observability and leak tests).
func (o *Oracle) SlotCount() (total, free int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(*o.slots.Load()), len(o.freeSlots)
}

// MinActiveBegin returns the smallest active snapshot timestamp, or the
// current clock when no transaction is active. Versions strictly older than
// the version visible at this timestamp are unreachable and may be reclaimed.
// It is lock-free: the scan walks the published slot snapshot, so a GC cycle
// never blocks (or is blocked by) slot registration. The clock must be
// loaded before the snapshot: a slot published after the load can only carry
// begins at or after that clock value, which the result already bounds.
func (o *Oracle) MinActiveBegin() uint64 {
	min := o.clock.Load()
	for _, s := range *o.slots.Load() {
		if b := s.begin.Load(); b != 0 && b-1 < min {
			min = b - 1
		}
	}
	return min
}

// Step selects what Finish does with an active transaction. The three steps
// share one pipeline — validate, draw a timestamp, log, publish — and differ
// only in which stages they run:
//
//	StepCommit   validate → draw cts → log → publish
//	StepPrepare  validate → draw cts → log → hold (stay Active, marked prepared)
//	StepResolve  draw a fresh cts → log → publish (a prepared transaction)
type Step uint8

const (
	StepCommit Step = iota
	StepPrepare
	StepResolve
)

// Commit finishes the transaction in one phase; see Finish.
func (t *Txn) Commit(logFn func(cts uint64) error) (uint64, error) {
	return t.Finish(StepCommit, logFn)
}

// Finish runs one commit step. Under Serializable it first validates the
// read set; the validation+publication pair runs inside the oracle's commit
// critical section, which the caller's engine wraps in a non-preemptible
// region. logFn, when non-nil, is invoked with the drawn timestamp after
// validation and before publication — the hook the storage engine uses to
// flush its CLS redo buffer so the log never contains an unpublishable
// transaction.
//
// StepPrepare is the first phase of a two-phase commit: logFn receives a
// provisional timestamp, and on success the transaction stays Active and
// marked prepared — its versions remain in-flight, blocking conflicting
// writers and invisible to readers, until StepResolve publishes them or Abort
// rolls them back. On any failure of StepCommit or StepPrepare (lifecycle
// error, validation, logFn) the transaction aborts cleanly and nothing was
// published.
//
// Serializable caveat: read validation happens at StepPrepare, not at
// StepResolve — between the two, the participant holds no latch, so a local
// serializable transaction can commit in the window. Write-write conflicts
// are still excluded (the prepared versions stay in-flight); only
// read-antidependencies across the window are unchecked, the classic
// 2PC-over-OCC relaxation.
//
// StepResolve draws a FRESH commit timestamp — not the prepare-time one —
// because the in-doubt window is unbounded: publishing the stale prepare
// timestamp would make the versions visible retroactively to snapshots taken
// mid-window, breaking snapshot isolation. (The prepare timestamp is used
// only when recovery itself resolves an in-doubt transaction, where no live
// snapshot ever observed the intermediate state.) logFn stages the resolution
// record; unlike the other steps, a logFn error does NOT abort — the
// coordinator's decision is already durable, so recovery would commit this
// transaction anyway, and the in-memory state must agree. The error is
// returned alongside the published timestamp with "committed here, resolution
// not durable" semantics.
func (t *Txn) Finish(step Step, logFn func(cts uint64) error) (uint64, error) {
	if !t.Active() {
		return 0, ErrTxnDone
	}
	switch {
	case step == StepResolve && !t.prepared:
		return 0, ErrNotPrepared
	case step != StepResolve && t.prepared:
		return 0, ErrAlreadyPrepared
	}
	if step != StepResolve {
		if err := t.ctx.Err(); err != nil {
			// A canceled or deadline-expired transaction must never publish:
			// its submitter has already been (or will be) told it failed. A
			// prepared one is past that point — its decision already binds.
			t.abortLocked()
			return 0, err
		}
	}
	if t.iso == Serializable {
		// Commit/validation is a latch-holding critical section: the engine
		// layer additionally wraps Finish in a non-preemptible region (§4.4).
		// A resolve validates nothing, but its publication still serializes
		// with local serializable commits so their validation scans never
		// race our stamping.
		t.oracle.commitMu.Lock()
		defer t.oracle.commitMu.Unlock()
		if step != StepResolve {
			if err := t.validateReads(); err != nil {
				t.abortLocked()
				return 0, err
			}
		}
	}
	if step != StepPrepare {
		// Enter the publication window BEFORE drawing the commit timestamp:
		// once the clock advances, any new reader's begin covers our (still
		// unpublished) versions, and resolve must make such readers wait
		// rather than read around them — see statusCommitting.
		t.state.Store(statusCommitting)
	}
	cts := t.oracle.clock.Add(1)
	var lerr error
	if logFn != nil {
		if lerr = logFn(cts); lerr != nil && step != StepResolve {
			t.abortLocked()
			return 0, lerr
		}
	}
	if step == StepPrepare {
		t.prepared = true
		return cts, nil
	}
	t.prepared = false
	// The atomic commit point: all our versions become visible at once.
	t.state.Store(statusCommitted | cts<<statusBits)
	// Eagerly stamp versions so readers take the fast path, then drop the
	// writer references to unpin the Txn.
	for i := range t.writes {
		v := t.writes[i].ver
		v.cts.CompareAndSwap(0, cts)
		v.writer.Store(nil)
	}
	if t.slot != nil {
		t.slot.begin.Store(0)
	}
	return cts, lerr
}

// validateReads implements backward OCC: every record read must still expose
// the same version as the newest committed one. Runs under commitMu, so no
// concurrent serializable transaction can publish in between.
func (t *Txn) validateReads() error {
	for _, re := range t.reads {
		if re.ver != nil && re.ver.writer.Load() == t {
			// Read-own-write: covered by write-write conflict detection.
			continue
		}
		if newestCommitted(re.rec) != re.ver {
			return ErrReadValidation
		}
	}
	return nil
}

// newestCommitted returns the newest committed version of rec (nil if none).
func newestCommitted(rec *Record) *Version {
	for v := rec.head.Load(); v != nil; v = v.prev.Load() {
		if _, committed, _ := v.resolve(); committed {
			return v
		}
	}
	return nil
}

// ReadCommittedAt returns the payload and true commit timestamp of the newest
// version committed at or before ts. ok is false when no such version exists;
// a tombstone returns ok true with nil data. Checkpointing uses this to
// record each row's real commit timestamp, so replaying an overlapping log
// region over the restored checkpoint can skip already-included versions
// (apply-if-newer) instead of double-installing them.
func ReadCommittedAt(rec *Record, ts uint64) (data []byte, cts uint64, ok bool) {
	for v := rec.head.Load(); v != nil; v = v.prev.Load() {
		c, committed, _ := v.resolve()
		if committed && c <= ts {
			return v.data, c, true
		}
	}
	return nil, 0, false
}

// NewestCommittedTS returns the commit timestamp of rec's newest committed
// version, or 0 when none exists. Recovery-only: the apply-if-newer guard for
// replaying a log region that overlaps a restored checkpoint.
func NewestCommittedTS(rec *Record) uint64 {
	if v := newestCommitted(rec); v != nil {
		cts, _, _ := v.resolve()
		return cts
	}
	return 0
}

// InstallCommitted prepends an already-committed version with the given
// commit timestamp. Recovery-only: it bypasses conflict detection and assumes
// versions are installed in non-decreasing timestamp order per record.
func InstallCommitted(rec *Record, data []byte, cts uint64) {
	v := &Version{data: data}
	v.cts.Store(cts)
	v.prev.Store(rec.head.Load())
	rec.head.Store(v)
}

// AdvanceTo raises the commit clock to at least ts (recovery-only).
func (o *Oracle) AdvanceTo(ts uint64) {
	for {
		cur := o.clock.Load()
		if cur >= ts || o.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Abort rolls the transaction back: its versions become permanently
// invisible and are unlinked from chain heads where possible.
func (t *Txn) Abort() error {
	if !t.Active() {
		return ErrTxnDone
	}
	t.abortLocked()
	return nil
}

// abortLocked is the rollback itself, shared by Abort and Finish's failure
// exits; it also withdraws the slot's snapshot advertisement.
func (t *Txn) abortLocked() {
	t.prepared = false
	t.state.Store(statusAborted)
	for i := range t.writes {
		w := t.writes[i]
		w.ver.cts.CompareAndSwap(0, ctsAborted)
		w.ver.writer.Store(nil)
		// Best-effort unlink: if our version still heads the chain, pop it.
		// Failure means a later writer superseded it; readers skip aborted
		// versions regardless, and GC trims them eventually.
		w.rec.head.CompareAndSwap(w.ver, w.ver.prev.Load())
	}
	if t.slot != nil {
		t.slot.begin.Store(0)
	}
}
