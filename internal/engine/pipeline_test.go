package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"preemptdb/internal/hotcache"
	"preemptdb/internal/iofault"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/wal"
)

// The failure matrix of the one commit pipeline (Txn.finish): every step ×
// every way the step can go, with the same post-conditions asserted after
// each case. The transaction under test updates "b" and inserts "c"; "a" is
// only read (serializable cases) and overwritten by a rival.

type pipeOutcome int

const (
	okLeader pipeOutcome = iota
	okFollower
	canceled
	pastDeadline
	writeConflict
	validationFailure
	stageRefused
	leaderIOError
)

var pipeOutcomeNames = map[pipeOutcome]string{
	okLeader: "ok-leader", okFollower: "ok-follower", canceled: "canceled",
	pastDeadline: "deadline", writeConflict: "write-conflict",
	validationFailure: "validation", stageRefused: "stage-refused",
	leaderIOError: "leader-io-error",
}

var pipeStepNames = map[mvcc.Step]string{
	mvcc.StepCommit: "commit", mvcc.StepPrepare: "prepare", mvcc.StepResolve: "resolve",
}

// pipeWant is the expected result of one (step, outcome) cell.
type pipeWant struct {
	err     error // errors.Is target of the step's return; nil = success
	visible bool  // the writes are visible to a fresh reader afterwards
}

// pipeExpect is the matrix itself. A resolve publishes whatever happens — the
// coordinator's decision already binds — so its failure cells differ from the
// other two steps only in the returned error.
func pipeExpect(step mvcc.Step, out pipeOutcome) pipeWant {
	if step == mvcc.StepResolve {
		switch out {
		case stageRefused, leaderIOError:
			return pipeWant{err: wal.ErrWALFailed, visible: true}
		}
		return pipeWant{visible: true}
	}
	switch out {
	case canceled:
		return pipeWant{err: pcontext.ErrCanceled}
	case pastDeadline:
		return pipeWant{err: pcontext.ErrDeadlineExceeded}
	case writeConflict:
		return pipeWant{err: mvcc.ErrWriteConflict}
	case validationFailure:
		return pipeWant{err: mvcc.ErrReadValidation}
	case stageRefused:
		return pipeWant{err: wal.ErrWALFailed}
	case leaderIOError:
		// A one-phase commit publishes at staging time, before the batch
		// I/O: "committed here, not durable". A prepare whose frame never
		// became durable never happened.
		return pipeWant{err: wal.ErrWALFailed, visible: step == mvcc.StepCommit}
	}
	// A successful prepare holds: nothing is visible until it resolves.
	return pipeWant{visible: step == mvcc.StepCommit}
}

const pipeDeadline = 2 * time.Second

func TestCommitPipelineFailureMatrix(t *testing.T) {
	for _, guest := range []bool{false, true} {
		for _, step := range []mvcc.Step{mvcc.StepCommit, mvcc.StepPrepare, mvcc.StepResolve} {
			for out := okLeader; out <= leaderIOError; out++ {
				name := fmt.Sprintf("%s/%s/guest=%v", pipeStepNames[step], pipeOutcomeNames[out], guest)
				t.Run(name, func(t *testing.T) { runPipelineCase(t, step, out, guest) })
			}
		}
	}
}

func runPipelineCase(t *testing.T, step mvcc.Step, out pipeOutcome, guest bool) {
	want := pipeExpect(step, out)
	iso := mvcc.SnapshotIsolation
	if out == validationFailure {
		iso = mvcc.Serializable
	}
	sink := iofault.NewSink()
	cache := hotcache.New(hotcache.Config{MaxBytes: 1 << 20})
	e := New(Config{
		Isolation: iso, LogSink: sink, SyncEachCommit: true, Metrics: metrics.NewRegistry(),
		Cache: cache,
	})
	defer e.Close()
	tbl := e.CreateTable("t")
	keyA, keyB, keyC := []byte("a"), []byte("b"), []byte("c")
	mustPut(t, e, nil, tbl, keyA, []byte("a0"))
	mustPut(t, e, nil, tbl, keyB, []byte("b0"))

	// Auxiliary transactions (rivals, readers, the WAL-latching sacrifice) run
	// on the nil context and hold no oracle slot, so the slot table reflects
	// the transaction under test alone.
	ctx := pcontext.Detached()
	if guest {
		New(Config{}).AttachContext(ctx) // another engine owns ctx: e's txns on it are guests
	}
	e.Begin(ctx).Abort() // warm-up: the slot the case will use exists (guest: on the free list)
	total0, free0 := e.Oracle().SlotCount()

	// rival is an in-flight writer of "b" the transaction under test runs into.
	var rival *Txn
	if out == writeConflict && step != mvcc.StepResolve {
		rival = e.Begin(nil)
		if err := rival.Put(tbl, keyB, []byte("rival")); err != nil {
			t.Fatal(err)
		}
	}

	tx := e.Begin(ctx)
	if out == validationFailure {
		if _, err := tx.Get(tbl, keyA); err != nil { // into the read set
			t.Fatal(err)
		}
	}
	errB := tx.Put(tbl, keyB, []byte("b1"))
	if rival != nil {
		if !IsConflict(errB) {
			t.Fatalf("Put over an in-flight rival = %v, want a write conflict", errB)
		}
	} else if errB != nil {
		t.Fatal(errB)
	}
	if err := tx.Put(tbl, keyC, []byte("c1")); err != nil {
		t.Fatal(err)
	}
	const gid = 4242
	if step == mvcc.StepResolve {
		if err := tx.PrepareCommit(gid); err != nil {
			t.Fatal(err)
		}
	}

	// Arrange the outcome just before the step under test.
	var lead *wal.Buffer
	switch out {
	case okFollower:
		// Stage a first frame directly on the log so the step enrols behind
		// an open batch as its second buffer; LeaderFinish below runs only
		// once the open batch holds it.
		lead = wal.NewBuffer()
		lead.Append(wal.RecInsert, tbl.ID(), []byte("lead"), []byte("x"))
		if leader, err := e.Log().Stage(1<<40, e.Oracle().Clock(), lead); err != nil || !leader {
			t.Fatalf("direct Stage: leader=%v err=%v", leader, err)
		}
		e.Log().Published()
	case canceled:
		ctx.Cancel()
		defer ctx.Disarm()
	case pastDeadline:
		ctx.Arm(1) // an absolute deadline long past
		defer ctx.Disarm()
	case writeConflict:
		if step == mvcc.StepResolve {
			// The prepared transaction is the holder: its in-doubt versions
			// refuse a conflicting writer, and the resolve is unaffected.
			r := e.Begin(nil)
			if err := r.Put(tbl, keyB, []byte("rival")); !IsConflict(err) {
				t.Fatalf("Put over in-doubt versions = %v, want a write conflict", err)
			}
			r.Abort()
		}
	case validationFailure:
		// A rival overwrites what the transaction read. Before a commit or a
		// prepare that fails validation; after the prepare it is the
		// unchecked 2PC-over-OCC window and the resolve succeeds.
		mustPut(t, e, nil, tbl, keyA, []byte("a1"))
	case stageRefused:
		// Latch the WAL with a sacrificial commit whose batch write fails;
		// the transaction under test has already buffered its writes.
		sink.FailWrite(sink.Writes()+1, nil)
		s := e.Begin(nil)
		if err := s.Put(tbl, []byte("sacrifice"), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); !errors.Is(err, wal.ErrWALFailed) {
			t.Fatalf("sacrificial commit = %v, want ErrWALFailed", err)
		}
	case leaderIOError:
		sink.FailWrite(sink.Writes()+1, nil)
	}
	commits0, aborts0 := e.Commits(), e.Aborts()
	polls0 := ctx.CLS().Accesses

	// The step under test.
	run := func() error {
		switch {
		case rival != nil:
			// The conflicting Put already failed the transaction; finish it
			// the way each step's caller does.
			if step == mvcc.StepPrepare {
				tx.ResolveAbort()
			} else {
				tx.Abort()
			}
			return errB
		case step == mvcc.StepCommit:
			return tx.Commit()
		case step == mvcc.StepPrepare:
			return tx.PrepareCommit(gid)
		default:
			return tx.ResolveCommit()
		}
	}
	var err error
	if out == okFollower {
		done := make(chan error, 1)
		go func() { done <- run() }()
		for wait := time.Now().Add(pipeDeadline); e.Log().OpenBatchLen() < 2; runtime.Gosched() {
			if time.Now().After(wait) {
				t.Fatal("step never enrolled behind the open batch")
			}
		}
		if _, lerr := e.Log().LeaderFinish(lead); lerr != nil {
			t.Fatal(lerr)
		}
		select {
		case err = <-done:
		case <-time.After(pipeDeadline):
			t.Fatal("follower never returned from its batch wait")
		}
		if !tx.staged || tx.leader {
			t.Fatalf("step did not enrol as a follower: staged=%v leader=%v", tx.staged, tx.leader)
		}
	} else {
		err = run()
	}
	if want.err == nil && err != nil || want.err != nil && !errors.Is(err, want.err) {
		t.Fatalf("step returned %v, want %v", err, want.err)
	}
	// The pipeline's one Poll is the follower's, before it parks.
	wantPolls := uint64(0)
	if out == okFollower {
		wantPolls = 1
	}
	if got := ctx.CLS().Accesses - polls0; got != wantPolls {
		t.Fatalf("step polled %d times, want %d", got, wantPolls)
	}

	// moved asserts how far the outcome counters went since the last call.
	moved := func(when string, wantCommits, wantAborts uint64) {
		t.Helper()
		c, a := e.Commits(), e.Aborts()
		if c-commits0 != wantCommits || a-aborts0 != wantAborts {
			t.Fatalf("%s: commits +%d aborts +%d, want +%d +%d", when, c-commits0, a-aborts0, wantCommits, wantAborts)
		}
		commits0, aborts0 = c, a
	}
	// observe asserts everything a bystander can see of the transaction.
	observe := func(when string, visible, held bool) {
		t.Helper()
		wantB, wantC := []byte("b0"), []byte(nil)
		if visible {
			wantB, wantC = []byte("b1"), []byte("c1")
		}
		hits := cache.Counts().Hits
		for i := 0; i < 2; i++ {
			rd := e.BeginIso(nil, mvcc.SnapshotIsolation)
			b, errB := rd.Get(tbl, keyB)
			c, errC := rd.Get(tbl, keyC)
			rd.Abort()
			if errB != nil || !bytes.Equal(b, wantB) {
				t.Fatalf("%s: fresh reader sees b = %q (%v), want %q", when, b, errB, wantB)
			}
			if !bytes.Equal(c, wantC) || (wantC == nil) != errors.Is(errC, ErrNotFound) {
				t.Fatalf("%s: fresh reader sees c = %q (%v), want %q", when, c, errC, wantC)
			}
		}
		moved(when+" (two readers)", 0, 2)
		// Cache window: closed means the first read filled and the second
		// hit; a prepared participant keeps it open and every read misses.
		if filled := cache.Counts().Hits > hits; filled == held {
			t.Fatalf("%s: cache window open=%v, want open=%v", when, !filled, held)
		}
		if _, any := e.OldestPrepareLSN(); any != held {
			t.Fatalf("%s: OldestPrepareLSN reports a prepare=%v, want %v", when, any, held)
		}
		barrier := make(chan struct{})
		go func() { e.Log().PublishBarrier(); close(barrier) }()
		select {
		case <-barrier:
		case <-time.After(pipeDeadline):
			t.Fatalf("%s: PublishBarrier wedged: a staged frame was never marked Published", when)
		}
	}

	held := step == mvcc.StepPrepare && want.err == nil
	switch {
	case held:
		moved("after the step", 0, 0)
	case want.visible:
		moved("after the step", 1, 0)
	default:
		moved("after the step", 0, 1)
	}
	observe("after the step", want.visible, held)
	if held {
		// A prepared transaction finishes only through a resolve or an abort.
		if err := tx.Commit(); !errors.Is(err, mvcc.ErrAlreadyPrepared) {
			t.Fatalf("Commit of a prepared transaction = %v, want ErrAlreadyPrepared", err)
		}
		if err := tx.PrepareCommit(gid + 1); !errors.Is(err, mvcc.ErrAlreadyPrepared) {
			t.Fatalf("second PrepareCommit = %v, want ErrAlreadyPrepared", err)
		}
		moved("refused finishes of a prepared transaction", 0, 0)
		observe("still prepared", false, true)
		tx.ResolveAbort()
		moved("after ResolveAbort", 0, 1)
		observe("after ResolveAbort", false, false)
	}
	if rival != nil {
		rival.Abort()
		moved("rival's abort", 0, 1)
	}
	// Finishing again is refused (or, for Abort, a no-op) and moves nothing.
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, mvcc.ErrTxnDone) {
		t.Fatalf("Commit after the step = %v, want ErrTxnDone", err)
	}
	moved("re-finishing", 0, 0)
	if total, free := e.Oracle().SlotCount(); total != total0 || free != free0 {
		t.Fatalf("oracle slots total=%d free=%d, want %d/%d: the transaction leaked its slot", total, free, total0, free0)
	}
}
