package preemptdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"preemptdb/internal/dtx"
	"preemptdb/internal/engine"
	"preemptdb/internal/store"
	"preemptdb/internal/wal"
)

// maxShards bounds Config.Shards; each shard carries a full engine +
// scheduler stack (Workers goroutines each), so the useful range is small.
const maxShards = 64

// ensureDecisionTables creates the 2PC decision table on every shard of a
// multi-shard database. Called after the user schema so user table ids are
// identical to a single-shard database's; skipped entirely at Shards == 1,
// keeping that layout byte-identical to the pre-sharding format.
func (db *DB) ensureDecisionTables() {
	if len(db.shards) == 1 {
		return
	}
	for _, sh := range db.shards {
		dtx.EnsureTable(sh.eng)
	}
}

// close releases a shard's engine and segmented log (schedulers, when
// started, are stopped by DB.Close before this runs).
func (sh *shard) close() error {
	err := sh.eng.Close()
	if sh.dlog != nil {
		if cerr := sh.dlog.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// recover rebuilds this shard's in-memory state from ck (when non-nil) plus
// the WAL suffix past it, truncates the log's torn tail, and positions the
// segmented log and LSN counter at the verified stream end. It returns the
// shard's in-doubt 2PC prepares — transactions whose prepare frame survived
// but whose outcome needs the coordinator decision tables, which only exist
// once every shard has recovered (dtx.ResolveInDoubt).
func (sh *shard) recover(cfg Config, ck *store.Checkpoint) ([]wal.PreparedTxn, error) {
	if cfg.Schema != nil {
		// The schema callback takes the public facade; a single-shard view of
		// this shard routes its CreateTable/CreateIndex calls here.
		if err := cfg.Schema(&DB{cfg: cfg, shards: []*shard{sh}}); err != nil {
			return nil, err
		}
	}
	if cfg.Shards > 1 {
		dtx.EnsureTable(sh.eng)
	}
	start := uint64(0)
	if ck != nil {
		f, err := os.Open(ck.Path)
		if err != nil {
			return nil, err
		}
		err = sh.eng.RestoreCheckpoint(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("checkpoint at LSN %d: %w", ck.LSN, err)
		}
		start = ck.LSN
	}
	r, err := sh.dir.OpenReplay(start)
	if err != nil {
		return nil, err
	}
	res, pending, rerr := sh.eng.RecoverPrepared(r)
	r.Close()
	if rerr != nil {
		return nil, fmt.Errorf("replay from LSN %d: %w", start, rerr)
	}
	validEnd := start + res.Offset
	if err := sh.dir.TruncateTail(validEnd); err != nil {
		return nil, err
	}
	// Reposition also cross-checks validEnd against the on-disk stream: a
	// checkpoint whose LSN the log never durably reached fails here and falls
	// back to an older candidate.
	if err := sh.dlog.Reposition(validEnd); err != nil {
		return nil, err
	}
	sh.eng.Log().SetLSN(validEnd)
	return pending, nil
}

// openShard recovers shard si from its directory — root itself for a
// single-shard database (the flat pre-sharding layout), root/shard-<i>
// otherwise — trying recovery candidates newest checkpoint first and ending
// with "no checkpoint" (replay the whole log from LSN 0). A candidate that
// fails verification anywhere — checkpoint CRC, mid-stream log corruption, a
// checkpoint whose LSN the log never durably reached — is abandoned wholesale
// and the next one tried from a fresh engine, so partial restore state never
// leaks into the opened database.
func openShard(root string, cfg Config, si int) (*shard, []wal.PreparedTxn, error) {
	if cfg.Shards > 1 {
		root = filepath.Join(root, fmt.Sprintf("shard-%d", si))
	}
	d, err := store.Open(root)
	if err != nil {
		return nil, nil, err
	}
	cks, err := d.Checkpoints()
	if err != nil {
		return nil, nil, err
	}
	var errs []error
	for i := len(cks); i >= 0; i-- {
		var ck *store.Checkpoint
		if i > 0 {
			ck = &cks[i-1]
		}
		sh := newShard(cfg, si, d.NewLog(cfg.SegmentBytes))
		sh.dir = d
		pending, err := sh.recover(cfg, ck)
		if err != nil {
			sh.close()
			errs = append(errs, err)
			continue
		}
		return sh, pending, nil
	}
	return nil, nil, errors.Join(errs...)
}

// openSharded is the file-backed open at every shard count: recover every
// shard from its directory, then — once all decision tables are back — settle
// each shard's in-doubt 2PC prepares against them, and only then start
// schedulers and accept work. (A single shard has no decision table and can
// have nothing in doubt.)
func openSharded(dir string, cfg Config) (*DB, error) {
	shs := make([]*shard, cfg.Shards)
	pends := make([][]wal.PreparedTxn, cfg.Shards)
	fail := func(err error) (*DB, error) {
		for _, sh := range shs {
			if sh != nil {
				sh.close()
			}
		}
		return nil, err
	}
	for i := range shs {
		sh, pending, err := openShard(dir, cfg, i)
		if err != nil {
			return fail(fmt.Errorf("preemptdb: open %s shard %d: %w", dir, i, err))
		}
		shs[i] = sh
		pends[i] = pending
	}
	engines := make([]*engine.Engine, len(shs))
	for i, sh := range shs {
		engines[i] = sh.eng
	}
	for i, sh := range shs {
		if len(pends[i]) == 0 {
			continue
		}
		if _, err := dtx.ResolveInDoubt(sh.eng, pends[i], engines); err != nil {
			return fail(fmt.Errorf("preemptdb: open %s shard %d: resolve in-doubt: %w", dir, i, err))
		}
	}
	return assembleDB(cfg, shs)
}

// nextGID issues a globally-unique 2PC transaction id: random per-Open base
// plus counter, GIDBit set (see DB.gidBase).
func (db *DB) nextGID() uint64 {
	return dtx.GIDBit | ((db.gidBase + db.gidCtr.Add(1)) &^ dtx.GIDBit)
}

// abortParts aborts every still-open participant (deferred by attempt, so a
// failed or half-committed attempt always releases its holds; commitParts
// nils out participants as it consumes them).
func (t *Txn) abortParts() {
	for i, p := range t.parts {
		if p != nil {
			p.Abort()
			t.parts[i] = nil
		}
	}
}

// commitParts commits a multi-shard attempt. Participants that wrote nothing
// commit first — their serializable read validation still gates the whole
// transaction, and they publish nothing, so an abort after they commit
// leaves no trace. Then: zero writers is done, one writer is an ordinary
// single-shard commit (the common case for hash-routed point transactions),
// and several writers run two-phase commit under a fresh gid.
func (t *Txn) commitParts() error {
	var buf [8]int // keeps writers off the heap at ordinary shard counts
	writers := buf[:0]
	for si, p := range t.parts {
		if p == nil {
			continue
		}
		if p.Pending() > 0 {
			writers = append(writers, si)
			continue
		}
		t.parts[si] = nil
		if err := p.Commit(); err != nil {
			return err // read validation failed: deferred abortParts clears the rest
		}
	}
	switch len(writers) {
	case 0:
		return nil
	case 1:
		p := t.parts[writers[0]]
		t.parts[writers[0]] = nil
		return p.Commit()
	}
	parts := make([]dtx.Participant, len(writers))
	for i, si := range writers {
		parts[i] = dtx.Participant{Shard: si, Txn: t.parts[si], Eng: t.db.shards[si].eng}
		t.parts[si] = nil
	}
	// The resolution gate publishes all participants inside one critical
	// section of db.xsMu, fencing concurrent multi-shard snapshot
	// establishment (Txn.part) so no reader assembles a cross-shard view that
	// includes this transaction on one shard but not another.
	return dtx.CommitCrossShard(t.db.nextGID(), parts, resolutionGate{t.db})
}

// resolutionGate adapts DB.xsMu/xsGen to dtx.ResolutionGate: 2PC resolution
// runs under the write lock and advances the snapshot generation on release,
// invalidating multi-shard snapshot establishments in progress on either side
// of it (see Txn.part).
type resolutionGate struct{ db *DB }

func (g resolutionGate) Lock() { g.db.xsMu.Lock() }
func (g resolutionGate) Unlock() {
	g.db.xsGen.Add(1)
	g.db.xsMu.Unlock()
}

// mergeBatch is how many rows a merge cursor pulls from its shard per
// refill: large enough to amortize the B+tree descent per batch, small
// enough that early-stopping scans don't over-read.
const mergeBatch = 128

// scanCursor is one shard's leg of a merged cross-shard scan: it pulls rows
// in batches through bounded sub-scans, advancing its moving bound past the
// last row each refill. All reads run through the shard participant, so the
// merged scan has exactly one snapshot per shard, consistent with the
// transaction's point reads.
type scanCursor struct {
	txn   *engine.Txn
	tab   *engine.Table
	index string // secondary index name, "" for the primary
	desc  bool
	// next is the moving bound — exclusive-lower successor (ascending) or
	// exclusive upper (descending); fixed is the other, caller-given bound.
	next, fixed []byte
	keys, vals  [][]byte
	pos         int
	exhausted   bool
}

func (c *scanCursor) refill() error {
	c.keys, c.vals, c.pos = c.keys[:0], c.vals[:0], 0
	if c.exhausted {
		return nil
	}
	stopped := false
	collect := func(k, v []byte) bool {
		// A batch only breaks on a key change: non-unique index keys must not
		// straddle a batch boundary, or the moving bound (which is in key
		// space) would skip or repeat the rest of the duplicate run.
		if len(c.keys) >= mergeBatch && !bytes.Equal(k, c.keys[len(c.keys)-1]) {
			stopped = true
			return false
		}
		c.keys = append(c.keys, append([]byte(nil), k...))
		c.vals = append(c.vals, append([]byte(nil), v...))
		return true
	}
	if err := c.scanRest(collect); err != nil {
		return err
	}
	if !stopped {
		// The sub-scan ran off the end of the range on its own; there is
		// nothing past these rows.
		c.exhausted = true
	}
	if len(c.keys) > 0 {
		last := c.keys[len(c.keys)-1]
		if c.desc {
			// Bounds are half-open [from, to): the whole duplicate run of the
			// last key was collected, so the key itself is the next exclusive
			// upper bound.
			c.next = last
		} else {
			// Smallest possible key strictly greater than last.
			c.next = append(append([]byte(nil), last...), 0)
		}
	}
	return nil
}

// scanRest runs the cursor's kind of scan over what is left of its range, on
// its shard.
func (c *scanCursor) scanRest(fn func(key, value []byte) bool) error {
	switch {
	case c.desc && c.index == "":
		return c.txn.ScanDesc(c.tab, c.fixed, c.next, fn)
	case c.desc:
		return c.txn.ScanIndexDesc(c.tab, c.index, c.fixed, c.next, fn)
	case c.index == "":
		return c.txn.Scan(c.tab, c.next, c.fixed, fn)
	default:
		return c.txn.ScanIndex(c.tab, c.index, c.next, c.fixed, fn)
	}
}

// stream hands fn the cursor's buffered rows and then the rest of its range
// straight from the shard's scan, uncopied and unbatched: what a cursor with
// nothing left to merge against does — the other shards ran dry, or there is
// only one shard.
func (c *scanCursor) stream(fn func(key, value []byte) bool) error {
	for ; c.pos < len(c.keys); c.pos++ {
		if !fn(c.keys[c.pos], c.vals[c.pos]) {
			return nil
		}
	}
	if c.exhausted {
		return nil
	}
	return c.scanRest(fn)
}

// mergeScan runs a range scan over every shard by k-way merging per-shard
// batched cursors into one global order (ascending or descending; primary-key
// or index-key). fn's contract matches the engine's scans; rows that share
// an index key may interleave across shards in arbitrary order.
func (t *Txn) mergeScan(table, index string, from, to []byte, desc bool, fn func(key, value []byte) bool) error {
	cursors := make([]*scanCursor, 0, len(t.db.shards))
	for si := range t.db.shards {
		tab, err := t.db.shards[si].eng.Table(table)
		if err != nil {
			return err
		}
		ptxn, err := t.part(si)
		if err != nil {
			return err
		}
		c := &scanCursor{txn: ptxn, tab: tab, index: index, desc: desc}
		if desc {
			c.fixed, c.next = from, to
		} else {
			c.next, c.fixed = from, to
		}
		cursors = append(cursors, c)
	}
	// A cursor needs a batch only while there is another to merge it with.
	for i := 0; i < len(cursors) && len(cursors) > 1; {
		if err := cursors[i].refill(); err != nil {
			return err
		}
		if len(cursors[i].keys) == 0 {
			cursors = append(cursors[:i], cursors[i+1:]...)
		} else {
			i++
		}
	}
	for len(cursors) > 1 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			cmp := bytes.Compare(cursors[i].keys[cursors[i].pos], cursors[best].keys[cursors[best].pos])
			if (desc && cmp > 0) || (!desc && cmp < 0) {
				best = i
			}
		}
		c := cursors[best]
		if !fn(c.keys[c.pos], c.vals[c.pos]) {
			return nil
		}
		c.pos++
		if c.pos == len(c.keys) {
			if err := c.refill(); err != nil {
				return err
			}
			if len(c.keys) == 0 {
				cursors[best] = cursors[len(cursors)-1]
				cursors = cursors[:len(cursors)-1]
			}
		}
	}
	return cursors[0].stream(fn)
}
