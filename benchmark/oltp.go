package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"preemptdb"
)

const kvTable = "kv"

// kvKeys builds the 65,536 fixed-width keys the key-value workloads share.
func kvKeys() [][]byte {
	keys := make([][]byte, tableRows)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%07d", i))
	}
	return keys
}

// loadKV fills table with one valueBytes-sized row per key through db.Run
// (the loader path, outside the scheduler). Values start as zeroes.
func loadKV(db *preemptdb.DB, table string, keys [][]byte, val []byte) error {
	for lo := 0; lo < len(keys); lo += 512 {
		hi := min(lo+512, len(keys))
		if err := db.Run(func(tx *preemptdb.Txn) error {
			for _, k := range keys[lo:hi] {
				if err := tx.Put(table, k, val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// byteCounter is the in-memory log sink: it counts what the WAL writes.
type byteCounter struct{ n atomic.Uint64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n.Add(uint64(len(p)))
	return len(p), nil
}

// oltpRMW is the closed-loop read-modify-write workload through the facade:
// Get + Put of one uniformly random row whose value carries a counter.
type oltpRMW struct {
	*closedLoop
	e      *env
	db     *preemptdb.DB
	keys   [][]byte
	sink   byteCounter
	before preemptdb.Stats
	after  preemptdb.Stats
}

func (w *oltpRMW) setup(e *env) error {
	w.e = e
	db, err := preemptdb.Open("", preemptdb.Config{
		Workers:        e.workers,
		Shards:         1,
		Policy:         preemptdb.PolicyPreempt,
		VacuumInterval: 10 * time.Millisecond,
		LogSink:        &w.sink,
	})
	if err != nil {
		return err
	}
	w.db = db
	db.CreateTable(kvTable)
	w.keys = kvKeys()
	if err := loadKV(db, kvTable, w.keys, make([]byte, valueBytes)); err != nil {
		return err
	}
	w.closedLoop = newClosedLoop(e, 100, 16, w.op)
	return nil
}

// op is one transaction: read the row, add one to the counter in its first
// eight bytes, write it back.
func (w *oltpRMW) op(c *client, t0 int64) {
	key := w.keys[c.r.intn(tableRows)]
	rt := c.tb.next()
	root := rt.add(spOp, -1, t0, t0)
	// The engine keeps the slice a Put hands it, so every write gets its own.
	scratch := make([]byte, valueBytes)
	pend, err := w.db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.High}, func(tx *preemptdb.Txn) error {
		return rmwBody(tx, rt, root, key, scratch)
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
	c.finish(t0, err)
	closeRoot(rt, root, submitted)
}

// rmwBody is the transaction closure, with spans around each call into the
// engine when rt is set. It may run more than once (the facade retries
// conflicts); every attempt records its own spans.
func rmwBody(tx *preemptdb.Txn, rt *reqTrace, root int8, key, scratch []byte) error {
	if rt == nil {
		v, err := tx.Get(kvTable, key)
		if err != nil {
			return err
		}
		copy(scratch, v)
		binary.LittleEndian.PutUint64(scratch, binary.LittleEndian.Uint64(scratch)+1)
		return tx.Put(kvTable, key, scratch)
	}
	e0 := now()
	queueWaitSpan(rt, root, e0)
	v, err := tx.Get(kvTable, key)
	e1 := now()
	if err == nil {
		copy(scratch, v)
		binary.LittleEndian.PutUint64(scratch, binary.LittleEndian.Uint64(scratch)+1)
		err = tx.Put(kvTable, key, scratch)
	}
	e2 := now()
	exec := rt.add(spExec, root, e0, e2)
	rt.add(spGet, exec, e0, e1)
	rt.add(spPut, exec, e1, e2)
	return err
}

// queueWaitSpan records send → closure start on the first attempt. The worker
// can start before SubmitOpts returns on the client, so the client adds the
// submit span only after the outcome (closeRoot), which also moves the start
// of the wait to the end of the submit call.
func queueWaitSpan(rt *reqTrace, root int8, execStart int64) {
	for i := int8(0); i < rt.n; i++ {
		if rt.spans[i].kind == spQueueWait {
			return
		}
	}
	rt.add(spQueueWait, root, rt.spans[root].start, execStart)
}

// closeRoot ends the root span at the moment the client saw the outcome, adds
// the submit call's span, starts the queue wait where that call returned, and
// adds the span from the end of the last closure attempt to the outcome.
func closeRoot(rt *reqTrace, root int8, submitted int64) {
	if rt == nil {
		return
	}
	end := now()
	rt.spans[root].end = end
	var lastExec int64
	for i := int8(0); i < rt.n; i++ {
		switch sp := &rt.spans[i]; sp.kind {
		case spQueueWait:
			sp.start = min(max(sp.start, submitted), sp.end)
		case spExec:
			lastExec = max(lastExec, sp.end)
		}
	}
	rt.add(spSubmit, root, rt.spans[root].start, submitted)
	if lastExec != 0 {
		rt.add(spCommitDone, root, lastExec, end)
	}
}

func (w *oltpRMW) run(d time.Duration) float64 {
	w.before = w.db.Stats()
	s := w.closedLoop.run(d)
	w.after = w.db.Stats()
	return s
}

func (w *oltpRMW) collect(res *passResult, windowS float64) {
	fg, _, attempted, failed, _, _ := w.totals()
	w.fillCommon(res, fg, attempted, failed, windowS)
	if w.e.spans {
		fillFacadeRows(res, w.db, w.before, w.after, fg.n, windowS)
	}
}

// check: the sum of the per-key counters equals the number of acknowledged
// commits (operations the watchdog abandoned may or may not have committed).
func (w *oltpRMW) check(*passResult) []string {
	var sum uint64
	err := w.db.Run(func(tx *preemptdb.Txn) error {
		sum = 0
		return tx.Scan(kvTable, nil, nil, func(_, v []byte) bool {
			sum += binary.LittleEndian.Uint64(v)
			return true
		})
	})
	if err != nil {
		return []string{fmt.Sprintf("oltp_rmw: reading counters: %v", err)}
	}
	_, _, _, _, abandoned, acked := w.totals()
	if sum < acked || sum > acked+abandoned {
		return []string{fmt.Sprintf("oltp_rmw: counters sum to %d, acknowledged commits %d (+%d abandoned)", sum, acked, abandoned)}
	}
	return nil
}

func (w *oltpRMW) close() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
