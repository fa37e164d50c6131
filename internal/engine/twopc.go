package engine

import (
	"preemptdb/internal/clock"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
)

// Two-phase commit participant methods. A cross-shard transaction's
// per-shard participants each PrepareCommit under a shared global id (gid),
// the coordinator durably records the commit decision, and every participant
// then ResolveCommits (or ResolveAborts when any prepare failed). The
// prepare stages the participant's redo as a prepare frame through the same
// group-commit pipeline as ordinary commits; the versions stay in-flight —
// invisible to readers, blocking conflicting writers — until resolution.

// PrepareCommit runs the first phase of a cross-shard commit on this
// participant (finish's prepare step): validation, staging the redo as a
// prepare frame under gid, and waiting for the frame's batch I/O. On success
// the transaction remains open and held; finish it with exactly one of
// ResolveCommit or ResolveAbort. On any failure the transaction is fully
// aborted (nothing was published) and the error returned — conflict errors
// satisfy IsConflict as usual.
func (t *Txn) PrepareCommit(gid uint64) error {
	t0 := clock.Nanos()
	if t.done {
		return mvcc.ErrTxnDone
	}
	if t.prepGID != 0 {
		return mvcc.ErrAlreadyPrepared
	}
	if err := t.ctx.Err(); err != nil {
		t.Abort()
		return err
	}
	// Register the checkpoint clamp BEFORE staging: the recorded LSN bound
	// must never land past the prepare frame, or a concurrent disk
	// checkpoint could truncate the in-doubt redo's only durable copy.
	t.eng.registerPrepare(gid)
	t.prepGID = gid
	mvccErr, ioErr := t.finish(mvcc.StepPrepare)
	if mvccErr == nil {
		mvccErr = ioErr
	}
	if mvccErr != nil {
		// Validation or staging failed, or the prepare frame never became
		// durable — either way the prepare never happened; Abort rolls the
		// hold back, closes the cache window and drops the clamp.
		t.Abort()
		return mvccErr
	}
	if t.eng.traceSpans {
		t.ctx.TraceEvent(pcontext.EvPrepare, pcontext.SpanAux(clock.Nanos()-t0, t.eng.shardID))
	}
	return nil
}

// ResolveCommit publishes a prepared participant after the coordinator's
// decision record is durable (finish's resolve step). The in-memory commit is
// unconditional — the decision already binds the outcome, and recovery would
// commit this participant from its prepare frame plus the decision — so like
// Commit, a non-nil return after a successful prepare means "committed here,
// the resolution record is not durable", which only matters if the WAL has
// failed (the database degrades to read-only then anyway).
func (t *Txn) ResolveCommit() error {
	t0 := clock.Nanos()
	if t.done {
		return mvcc.ErrTxnDone
	}
	if t.prepGID == 0 {
		return mvcc.ErrNotPrepared
	}
	t.done = true
	mvccErr, ioErr := t.finish(mvcc.StepResolve)
	t.eng.unregisterPrepare(t.prepGID)
	t.prepGID = 0
	if mvccErr == nil {
		mvccErr = ioErr
	}
	if t.eng.traceSpans && mvccErr == nil {
		t.ctx.TraceEvent(pcontext.EvResolve, pcontext.SpanAux(clock.Nanos()-t0, t.eng.shardID))
	}
	t.release()
	t.eng.commits.Add(1)
	return mvccErr
}

// ResolveAbort rolls a prepared participant back: its versions become
// invisible and no resolution record is written — under presumed abort, the
// absence of a coordinator decision is the abort, and recovery discards the
// prepare frame. Also safe on a never-prepared or already-finished
// transaction (it degrades to Abort's no-op).
func (t *Txn) ResolveAbort() { t.Abort() }
