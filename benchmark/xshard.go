package main

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"preemptdb"
	"preemptdb/internal/dtx"
)

const (
	acctTable       = "acct"
	xsShards        = 2
	xsCrossShare    = 0.20
	xsStartBalance  = 1000
	xsSnapshotEvery = int64(time.Second) // cross-shard snapshot sum, from client 0
)

var xsDirSeq atomic.Uint64

// xshardTransfer is the closed-loop bank-transfer workload on a two-shard,
// file-backed database: 80 % of transfers stay inside one shard, 20 % move
// money between shards and commit by two-phase commit.
type xshardTransfer struct {
	*closedLoop
	e    *env
	cfg  preemptdb.Config
	dir  string
	db   *preemptdb.DB
	keys [][]byte
	// Account numbers by owning shard, split in two: home accounts are debited
	// and credited by the shard's own client only, guest accounts are credited
	// by the other shards' clients only. No two clients ever write one
	// account, so no transfer fails on a write-write conflict with another.
	home, guest [xsShards][]int

	before, after preemptdb.Stats
	loadLogBytes  uint64
	lastSnap      int64
	snapshots     uint64
	snapErrs      uint64
	snapBad       []string
}

func (w *xshardTransfer) setup(e *env) error {
	w.e = e
	w.dir = filepath.Join(e.outDir, fmt.Sprintf("xshard-db-%d-%d", os.Getpid(), xsDirSeq.Add(1)))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	w.cfg = preemptdb.Config{
		Shards:         xsShards,
		Workers:        1,
		Policy:         preemptdb.PolicyPreempt,
		VacuumInterval: 10 * time.Millisecond,
		SyncEachCommit: false, // the flush policy of every commit compared
		Schema: func(db *preemptdb.DB) error {
			db.CreateTable(acctTable)
			return nil
		},
	}
	db, err := preemptdb.Open(w.dir, w.cfg)
	if err != nil {
		return err
	}
	w.db = db
	w.keys = kvKeys()
	for i, k := range w.keys {
		s := dtx.ShardOf(k, xsShards)
		if len(w.home[s]) <= len(w.guest[s]) {
			w.home[s] = append(w.home[s], i)
		} else {
			w.guest[s] = append(w.guest[s], i)
		}
	}
	val := make([]byte, valueBytes)
	binary.LittleEndian.PutUint64(val, xsStartBalance)
	if err := loadKV(db, acctTable, w.keys, val); err != nil {
		return err
	}
	w.loadLogBytes = db.Stats().LogBytes
	// One client per shard at most, each sending the transfers whose source
	// account its shard owns: a shard's scheduler then never receives a
	// request while it is executing one, so nothing is preempted inside the
	// 2PC resolution gate (README, "Known hazards").
	pinned := *e
	pinned.nproc = min(e.nproc, xsShards)
	w.closedLoop = newClosedLoop(&pinned, 300, 8, w.op)
	return nil
}

func (w *xshardTransfer) op(c *client, t0 int64) {
	if c.id == 0 && t0-w.lastSnap > xsSnapshotEvery {
		w.lastSnap = t0
		w.snapshot()
		t0 = now()
		c.opStart.Store(t0)
	}
	// Draw the pair: source in the client's own shard (any shard when one
	// client serves them all), destination in the same shard four times out
	// of five.
	src := c.id
	if len(w.clients) < xsShards {
		src = c.r.intn(xsShards)
	}
	dst := src
	cross := c.r.float() < xsCrossShare
	if cross {
		dst = (src + 1) % xsShards
	}
	from, to := w.home[src], w.home[dst]
	if cross {
		to = w.guest[dst]
	}
	ia, ib := c.r.intn(len(from)), c.r.intn(len(to))
	if !cross && ia == ib {
		ib = (ib + 1) % len(to)
	}
	a, b := from[ia], to[ib]
	amount := int64(1 + c.r.intn(10))
	ka, kb := w.keys[a], w.keys[b]

	rt := c.tb.next()
	root := rt.add(spOp, -1, t0, t0)
	if rt != nil && cross {
		rt.flags = flagCross
	}
	// The engine keeps the slices a Put hands it, so every write gets its own.
	scratch := make([]byte, 2*valueBytes)
	va, vb := scratch[:valueBytes], scratch[valueBytes:]
	pend, err := w.db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.High, RouteKey: ka}, func(tx *preemptdb.Txn) error {
		return transferBody(tx, rt, root, ka, kb, va, vb, amount)
	})
	if err != nil {
		c.finish(t0, err)
		return
	}
	var submitted int64
	if rt != nil {
		submitted = now()
	}
	err, ok := c.await(pend.Done(), t0)
	if !ok {
		c.giveUp()
		return
	}
	lat := c.finish(t0, err)
	if err == nil && cross {
		c.alt.record(lat)
	}
	closeRoot(rt, root, submitted)
}

func addBalance(v []byte, d int64) {
	binary.LittleEndian.PutUint64(v, uint64(int64(binary.LittleEndian.Uint64(v))+d))
}

// transferBody moves amount from account ka to account kb, with spans around
// each call into the engine when rt is set.
func transferBody(tx *preemptdb.Txn, rt *reqTrace, root int8, ka, kb, va, vb []byte, amount int64) error {
	var e0 int64
	if rt != nil {
		e0 = now()
		queueWaitSpan(rt, root, e0)
	}
	var marks [5]int64
	marks[0] = e0
	step := func(i int) {
		if rt != nil {
			marks[i] = now()
		}
	}
	err := func() error {
		a, err := tx.Get(acctTable, ka)
		if err != nil {
			return err
		}
		copy(va, a)
		step(1)
		b, err := tx.Get(acctTable, kb)
		if err != nil {
			return err
		}
		copy(vb, b)
		step(2)
		addBalance(va, -amount)
		addBalance(vb, amount)
		if err := tx.Put(acctTable, ka, va); err != nil {
			return err
		}
		step(3)
		err = tx.Put(acctTable, kb, vb)
		step(4)
		return err
	}()
	if rt != nil {
		end := now()
		exec := rt.add(spExec, root, e0, end)
		if err == nil {
			rt.add(spGet, exec, marks[0], marks[1])
			rt.add(spGet, exec, marks[1], marks[2])
			rt.add(spPut, exec, marks[2], marks[3])
			rt.add(spPut, exec, marks[3], marks[4])
		}
	}
	return err
}

// sum reads every balance in one transaction and returns rows and total.
func (w *xshardTransfer) sum(exec func(fn func(tx *preemptdb.Txn) error) error) (rows int, total int64, err error) {
	err = exec(func(tx *preemptdb.Txn) error {
		rows, total = 0, 0
		return tx.Scan(acctTable, nil, nil, func(_, v []byte) bool {
			rows++
			total += int64(binary.LittleEndian.Uint64(v))
			return true
		})
	})
	return rows, total, err
}

func (w *xshardTransfer) wantTotal() int64 { return int64(tableRows) * xsStartBalance }

func (w *xshardTransfer) verifySum(when string, rows int, total int64, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("xshard_transfer: bank sum %s: %v", when, err)
	case rows != tableRows || total != w.wantTotal():
		return fmt.Sprintf("xshard_transfer: bank sum %s: %d accounts hold %d, want %d accounts holding %d", when, rows, total, tableRows, w.wantTotal())
	}
	return ""
}

// snapshot sums the bank from a cross-shard snapshot while transfers run. It
// is submitted at priority Low from client 0 only — one producer, as the
// low-priority queue requires — so transfers preempt it.
func (w *xshardTransfer) snapshot() {
	rows, total, err := w.sum(func(fn func(tx *preemptdb.Txn) error) error {
		return w.db.ExecOpts(preemptdb.TxnOptions{Priority: preemptdb.Low, Timeout: time.Duration(watchdogNs)}, fn)
	})
	w.snapshots++
	if err != nil && (preemptdb.IsConflict(err) || preemptdb.IsDeadlineExceeded(err)) {
		w.snapErrs++ // no snapshot could be established; nothing was read
		return
	}
	if msg := w.verifySum("in a snapshot during the run", rows, total, err); msg != "" && len(w.snapBad) < 5 {
		w.snapBad = append(w.snapBad, msg)
	}
}

func (w *xshardTransfer) run(d time.Duration) float64 {
	w.before = w.db.Stats()
	s := w.closedLoop.run(d)
	w.after = w.db.Stats()
	return s
}

func (w *xshardTransfer) collect(res *passResult, windowS float64) {
	fg, alt, attempted, failed, _, _ := w.totals()
	w.fillCommon(res, fg, attempted, failed, windowS)
	res.setE("xs_p50_us", alt.quantile(0.5)/1e3, alt.n)
	if w.snapErrs > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d cross-shard snapshots could not be established (conflict or deadline); nothing was read in them", w.snapErrs, w.snapshots))
	}
	if !w.e.spans {
		return
	}
	fillFacadeRows(res, w.db, w.before, w.after, fg.n, windowS)
	if fg.n > 0 {
		res.setL("dtx.cross_share", float64(alt.n)/float64(fg.n), fg.n)
	}
}

func dirBytes(dir string) (n int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// check: the bank sum is exact in the snapshots taken during the run, at the
// end of it, and after the database is closed and reopened from its directory.
func (w *xshardTransfer) check(res *passResult) []string {
	out := append([]string(nil), w.snapBad...)
	add := func(msg string) {
		if msg != "" {
			out = append(out, msg)
		}
	}
	rows, total, err := w.sum(w.db.Run)
	add(w.verifySum("at the end of the run", rows, total, err))
	st := w.db.Stats()
	_, _, _, _, _, acked := w.totals()
	if err := w.db.Close(); err != nil {
		add(fmt.Sprintf("xshard_transfer: close: %v", err))
	}
	w.db = nil
	onDisk := dirBytes(w.dir)
	t0 := now()
	db, err := preemptdb.Open(w.dir, w.cfg)
	reopenNs := now() - t0
	if err != nil {
		return append(out, fmt.Sprintf("xshard_transfer: reopen: %v", err))
	}
	w.db = db
	rows, total, err = w.sum(db.Run)
	add(w.verifySum("after reopen", rows, total, err))
	if res.Traced && st.Commits > 0 && acked > 0 {
		res.setL("store.replay_us_per_txn", float64(reopenNs)/1e3/float64(st.Commits), st.Commits)
		res.setL("store.bytes_per_txn", float64(onDisk-int64(w.loadLogBytes))/float64(acked), acked)
	}
	return out
}

func (w *xshardTransfer) close() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
