package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/wal"
)

var (
	// ErrTxnReadOnly reports a write attempted through a read-only morsel
	// helper transaction.
	ErrTxnReadOnly = errors.New("engine: transaction is read-only")
	// ErrParallelScanWrites reports ParallelScan on a parent transaction that
	// has uncommitted writes: helpers share the parent's snapshot but not its
	// write set, so they would miss the parent's own uncommitted rows.
	ErrParallelScanWrites = errors.New("engine: ParallelScan requires a parent transaction with no uncommitted writes")
)

// Morsel is one unit of parallel scan work: a half-open key range plus its
// position in the partition (ranges are in ascending key order).
type Morsel struct {
	From, To []byte
	Index    int
}

// SpawnFunc offers fn for asynchronous execution on another transaction
// context (typically an idle scheduler worker). It returns false when the
// task cannot be queued; ParallelScan then simply runs more morsels inline.
// A queued fn may execute arbitrarily late or never claim any work — both
// are safe, because morsels are claimed from a shared counter, never
// pre-assigned.
type SpawnFunc func(fn func(ctx *pcontext.Context)) bool

// ParallelScanConfig controls morsel fan-out.
type ParallelScanConfig struct {
	// Morsels is the target partition width (default 8). The actual count
	// may be lower on small or churning trees.
	Morsels int
	// MaxHelpers caps how many helper tasks are offered to Spawn
	// (default: morsel count - 1, the parent keeps one for itself).
	MaxHelpers int
	// Spawn dispatches helper tasks; nil runs every morsel inline on the
	// caller, which degrades ParallelScan to a plain sequential scan.
	Spawn SpawnFunc
	// Stats, when non-nil, receives execution counters.
	Stats *ParallelScanStats
}

// ParallelScanStats reports how a ParallelScan actually executed.
type ParallelScanStats struct {
	Morsels int // ranges the partition produced
	Helpers int // helper tasks that claimed at least one morsel
	Inline  int // morsels executed inline by the parent
}

// defaultMorsels balances partition quality against claim overhead for the
// common 2-8 worker schedulers.
const defaultMorsels = 8

// psJob is the non-generic shared state of one ParallelScan: the morsel
// claim/completion counters, first-error latch, and the registry of running
// helpers for cancel propagation.
type psJob struct {
	next  atomic.Int64 // next unclaimed morsel index
	done  atomic.Int64 // completed (or skipped) morsels
	total int64

	failed atomic.Bool
	mu     sync.Mutex
	err    error
	active map[int]helperRef // running helpers, keyed by registration id
	nextID int
}

// helperRef identifies one running helper's armed lifecycle, so a parent
// failure can cancel it mid-morsel with a generation-fenced cancel.
type helperRef struct {
	ctx *pcontext.Context
	gen uint64
}

func (j *psJob) claim() int {
	i := j.next.Add(1) - 1
	if i >= j.total {
		return -1
	}
	return int(i)
}

// fail records the first error and cancels every running helper so their
// scans unwind at poll granularity instead of finishing doomed morsels.
func (j *psJob) fail(err error) {
	if err == nil || !j.failed.CompareAndSwap(false, true) {
		return
	}
	j.mu.Lock()
	j.err = err
	for _, ref := range j.active {
		ref.ctx.CancelGen(ref.gen)
	}
	j.mu.Unlock()
}

func (j *psJob) register(ctx *pcontext.Context, gen uint64) int {
	j.mu.Lock()
	id := j.nextID
	j.nextID++
	j.active[id] = helperRef{ctx: ctx, gen: gen}
	// A failure that latched before this registration has already swept the
	// map; cancel directly so this helper does not run a full morsel doomed
	// to be discarded.
	if j.failed.Load() {
		ctx.CancelGen(gen)
	}
	j.mu.Unlock()
	return id
}

func (j *psJob) unregister(id int) {
	j.mu.Lock()
	delete(j.active, id)
	j.mu.Unlock()
}

// ParallelScan runs body over each morsel of [from, to) on table's primary
// index and merges the per-morsel partial results in range order. The parent
// transaction tx must have no uncommitted writes; it keeps executing morsels
// inline (so progress never depends on helpers being scheduled), while up to
// MaxHelpers helper tasks offered through cfg.Spawn claim morsels from the
// shared counter and execute them as read-only transactions pinned at the
// parent's snapshot (mvcc.BeginAt) on their own oracle slots — the parent's
// slot stays advertised for the whole call, which is what makes sharing its
// begin safe. body observes exactly the parent's snapshot in every morsel;
// it runs concurrently, so any state it touches beyond sub must be
// synchronized or per-morsel. sub is only valid during the call. The first
// error cancels all running helpers and is returned after every claimed
// morsel finished; the merged result is meaningless in that case.
func ParallelScan[P any](tx *Txn, table *Table, from, to []byte, cfg ParallelScanConfig,
	body func(sub *Txn, m Morsel) (P, error), merge func(acc, part P) P) (P, error) {
	var zero P
	if tx.done {
		return zero, mvcc.ErrTxnDone
	}
	if err := tx.ctx.Err(); err != nil {
		return zero, err
	}
	if tx.inner.NumWrites() > 0 {
		return zero, ErrParallelScanWrites
	}
	n := cfg.Morsels
	if n <= 0 {
		n = defaultMorsels
	}
	ranges := table.primary.Partition(tx.ctx, from, to, n)
	partials := make([]P, len(ranges))
	job := &psJob{total: int64(len(ranges)), active: make(map[int]helperRef)}

	// runMorsel executes one claimed morsel on sub, which is either the
	// parent itself (inline) or a helper's pinned reader. Every claimed index
	// increments done exactly once, even when skipped after a failure — the
	// parent's completion wait depends on it.
	runMorsel := func(sub *Txn, i int) {
		if !job.failed.Load() {
			p, err := body(sub, Morsel{From: ranges[i].From, To: ranges[i].To, Index: i})
			if err != nil {
				job.fail(err)
			} else {
				partials[i] = p
			}
		}
		job.done.Add(1)
	}

	var helpers atomic.Int32
	deadline := tx.ctx.Deadline()
	begin := tx.inner.Begin()
	helperTask := func(hctx *pcontext.Context) {
		i := job.claim()
		if i < 0 {
			return // scan already fully claimed (or long finished)
		}
		helpers.Add(1)
		// Mirror the parent's deadline on the helper's own lifecycle and
		// register for cancel propagation; the helper polls hctx inside every
		// tree node visit, so a preemption, cancel, or deadline reaches it at
		// the same granularity as any low-priority transaction.
		gen := hctx.Arm(deadline)
		id := job.register(hctx, gen)
		sub := tx.eng.beginMorselReader(hctx, begin)
		for i >= 0 {
			runMorsel(sub, i)
			i = job.claim()
		}
		tx.eng.finishMorselReader(sub)
		job.unregister(id)
		hctx.Disarm()
	}

	offered := 0
	if cfg.Spawn != nil && len(ranges) > 1 {
		maxH := cfg.MaxHelpers
		if maxH <= 0 || maxH > len(ranges)-1 {
			maxH = len(ranges) - 1
		}
		for ; offered < maxH; offered++ {
			if !cfg.Spawn(helperTask) {
				break
			}
		}
	}

	// The parent claims and executes morsels inline until the counter runs
	// dry: the scan completes even if no helper ever runs.
	inline := 0
	for {
		if err := tx.ctx.Err(); err != nil {
			job.fail(err)
		}
		i := job.claim()
		if i < 0 {
			break
		}
		runMorsel(tx, i)
		inline++
	}
	// Wait for helpers to finish their claimed morsels. The parent holds no
	// latch here and keeps polling, so it stays preemptible and still
	// observes its own cancellation (propagating it to the helpers).
	for job.done.Load() < job.total {
		if err := tx.ctx.Err(); err != nil {
			job.fail(err)
		}
		tx.ctx.Poll()
		runtime.Gosched()
	}
	if cfg.Stats != nil {
		*cfg.Stats = ParallelScanStats{
			Morsels: len(ranges),
			Helpers: int(helpers.Load()),
			Inline:  inline,
		}
	}
	if job.failed.Load() {
		job.mu.Lock()
		err := job.err
		job.mu.Unlock()
		return zero, err
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = merge(acc, p)
	}
	return acc, nil
}

// beginMorselReader starts a read-only helper transaction on hctx pinned at
// the parent's snapshot timestamp. It mirrors BeginIso's context/CLS setup
// (attach, pooled Txn reuse) but goes through mvcc.BeginAt so the helper's
// slot advertises the shared begin, keeping the vacuum horizon behind the
// query for as long as any helper is reading.
func (e *Engine) beginMorselReader(hctx *pcontext.Context, begin uint64) *Txn {
	e.AttachContext(hctx)
	if !e.Owns(hctx) {
		// Foreign-owned helper context (cross-shard ParallelScan): the CLS
		// slots belong to another engine's oracle, so the reader runs as a
		// guest — a private slot registered in THIS oracle advertises the
		// pinned begin, keeping this engine's vacuum horizon behind the query.
		slot := e.oracle.RegisterSlot()
		t := &Txn{eng: e, ctx: hctx, logBuf: wal.NewBuffer(), guestSlot: slot}
		t.stageFn = t.stage
		t.readonly = true
		t.inner = e.oracle.BeginAt(hctx, mvcc.SnapshotIsolation, slot, begin)
		return t
	}
	cls := hctx.CLS()
	buf := cls.Get(pcontext.SlotLog).(*wal.Buffer)
	slot := cls.Get(pcontext.SlotSnapshot).(*mvcc.ActiveSlot)
	t, _ := cls.Get(pcontext.SlotScratch).(*Txn)
	if t == nil || !t.done || t.eng != e {
		t = &Txn{eng: e, ctx: hctx}
		t.stageFn = t.stage
		cls.Set(pcontext.SlotScratch, t)
	}
	buf.Reset()
	t.logBuf = buf
	t.done = false
	t.readonly = true
	t.inner = e.oracle.BeginAt(hctx, mvcc.SnapshotIsolation, slot, begin)
	return t
}

// finishMorselReader ends a morsel reader: the inner transaction aborts
// (releasing the slot's snapshot advertisement) without counting an engine
// abort — helper readers are not application transactions — and the pooled
// objects return to the helper context for its next regular transaction.
func (e *Engine) finishMorselReader(t *Txn) {
	if t.done {
		return
	}
	t.done = true
	t.readonly = false
	t.inner.Abort()
	t.release()
}
