package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"preemptdb"
	"preemptdb/server"
)

const (
	wireCacheBytes = 1 << 20 // a quarter of the table's 4 MiB of values
	wireTheta      = 0.99
	wirePutShare   = 0.10
	wireStripes    = 1024
	// Scripts go out at priority High: Client.Get/Client.Put submit at Low,
	// and the server's worker pool would then push into a worker's
	// single-producer low queue from several goroutines (README, "Known
	// hazard"). The cache fast path does not look at the priority.
	wirePriority   = preemptdb.High
	wireInprocPuts = 2000 // in-process Puts behind server.overhead_us
)

// wireKV is the closed-loop workload over loopback TCP: Zipf(0.99) keys, 90 %
// single-row reads and 10 % single-row writes, one connection per client.
type wireKV struct {
	*closedLoop
	e    *env
	db   *preemptdb.DB
	srv  *server.Server
	addr string
	keys [][]byte
	zipf *zipf

	conns []*wireConn
	// acked[k] is the highest sequence number whose write to key k was
	// acknowledged. Writers to one key take its stripe lock across the round
	// trip, so sequence order is commit order.
	acked   []atomic.Uint64
	stripes [wireStripes]sync.Mutex
	stale   atomic.Uint64 // reads that went backwards
	puts    atomic.Uint64
	before  preemptdb.Stats
	after   preemptdb.Stats
	inproc  hist
}

// wireConn is one client's connection and what it has seen.
type wireConn struct {
	cl    *server.Client
	zipf  *zipf
	last  []uint32    // highest sequence number this connection read per key
	stuck atomic.Bool // the watchdog closed the connection
	val   [valueBytes]byte
}

func (w *wireKV) setup(e *env) error {
	w.e = e
	db, err := preemptdb.Open("", preemptdb.Config{
		Workers:        e.workers,
		Policy:         preemptdb.PolicyPreempt,
		VacuumInterval: 10 * time.Millisecond,
		CacheBytes:     wireCacheBytes,
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
	w.acked = make([]atomic.Uint64, tableRows)
	w.srv = server.New(db)
	w.srv.Logf = func(string, ...any) {}
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = addr.String()
	w.closedLoop = newClosedLoop(e, 200, 1, w.op)
	w.onStuck = func(c *client, _ int64) {
		wc := w.conns[c.id]
		wc.stuck.Store(true)
		wc.cl.Close()
	}
	w.zipf = newZipf(nil, tableRows, wireTheta)
	for _, c := range w.clients {
		cl, err := server.Dial(w.addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, &wireConn{cl: cl, zipf: w.zipf.clone(c.r), last: make([]uint32, tableRows)})
	}
	return nil
}

func (w *wireKV) op(c *client, t0 int64) {
	wc := w.conns[c.id]
	k := int(wc.zipf.next())
	var err error
	if c.r.float() < wirePutShare {
		err = w.put(c, wc, k, t0)
	} else {
		err = w.get(c, wc, k, t0)
	}
	if err == nil {
		return
	}
	// The operation failed. If the watchdog closed the connection it was
	// stuck; either way carry on over a fresh connection.
	if wc.stuck.Swap(false) {
		c.giveUp()
	} else {
		c.finish(t0, err)
	}
	wc.cl.Close()
	for {
		cl, derr := server.Dial(w.addr)
		if derr == nil {
			wc.cl = cl
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (w *wireKV) get(c *client, wc *wireConn, k int, t0 int64) error {
	floor := max(uint32(w.acked[k].Load()), wc.last[k])
	res, err := wc.cl.Txn(wirePriority, []server.ScriptOp{server.GetOp(kvTable, w.keys[k])})
	if err != nil {
		return err
	}
	if len(res) != 1 || len(res[0].Value) != valueBytes {
		return fmt.Errorf("wire_kv: malformed Get result")
	}
	c.finish(t0, nil)
	if rt := c.tb.next(); rt != nil {
		root := rt.add(spOp, -1, t0, now())
		rt.add(spWireGet, root, t0, rt.spans[root].end)
	}
	seq := uint32(binary.LittleEndian.Uint64(res[0].Value))
	if seq < floor {
		w.stale.Add(1)
	}
	wc.last[k] = max(seq, floor)
	return nil
}

func (w *wireKV) put(c *client, wc *wireConn, k int, t0 int64) error {
	mu := &w.stripes[k%wireStripes]
	mu.Lock()
	defer mu.Unlock()
	seq := w.acked[k].Load() + 1
	binary.LittleEndian.PutUint64(wc.val[:], seq)
	if _, err := wc.cl.Txn(wirePriority, []server.ScriptOp{server.PutOp(kvTable, w.keys[k], wc.val[:])}); err != nil {
		return err
	}
	w.acked[k].Store(seq)
	w.puts.Add(1)
	c.alt.record(c.finish(t0, nil))
	if rt := c.tb.next(); rt != nil {
		root := rt.add(spOp, -1, t0, now())
		rt.add(spWirePut, root, t0, rt.spans[root].end)
	}
	return nil
}

func (w *wireKV) run(d time.Duration) float64 {
	w.puts.Store(0)
	w.before = w.db.Stats()
	s := w.closedLoop.run(d)
	w.after = w.db.Stats()
	if w.e.spans {
		w.inprocPuts()
	}
	return s
}

// inprocPuts times the same single-row Put through DB.SubmitOpts in process,
// one at a time, so the wire's share of a Put's latency can be told apart.
func (w *wireKV) inprocPuts() {
	r := newRnd(w.e.seed, 299)
	z := w.zipf.clone(r)
	for i := 0; i < wireInprocPuts; i++ {
		val := make([]byte, valueBytes) // the engine keeps the slice
		k := int(z.next())
		mu := &w.stripes[k%wireStripes]
		mu.Lock()
		seq := w.acked[k].Load() + 1
		binary.LittleEndian.PutUint64(val, seq)
		key := w.keys[k]
		t0 := now()
		pend, err := w.db.SubmitOpts(preemptdb.TxnOptions{Priority: wirePriority}, func(tx *preemptdb.Txn) error {
			return tx.Put(kvTable, key, val)
		})
		if err == nil {
			select {
			case err = <-pend.Done():
			case <-time.After(time.Duration(watchdogNs)):
				err = fmt.Errorf("abandoned")
			}
		}
		if err == nil {
			w.inproc.record(now() - t0)
			w.acked[k].Store(seq)
		}
		mu.Unlock()
	}
}

func (w *wireKV) collect(res *passResult, windowS float64) {
	fg, alt, attempted, failed, _, _ := w.totals()
	w.fillCommon(res, fg, attempted, failed, windowS)
	res.setE("put_p50_us", alt.quantile(0.5)/1e3, alt.n)
	if !w.e.spans {
		return
	}
	fillFacadeRows(res, w.db, w.before, w.after, fg.n, windowS)
	if puts := w.puts.Load(); puts > 0 {
		res.setL("hotcache.invalidations_per_put", float64(w.after.CacheInvalidations-w.before.CacheInvalidations)/float64(puts), puts)
	}
	if w.inproc.n > 0 {
		res.setL("server.overhead_us", (alt.quantile(0.5)-w.inproc.quantile(0.5))/1e3, w.inproc.n)
	}
}

// check: no connection's reads of a key went backwards in sequence number or
// behind a write acknowledged before the read was sent, and every row still
// holds the last acknowledged sequence number (or the one after it, if a write
// was abandoned in flight).
func (w *wireKV) check(*passResult) []string {
	var out []string
	if n := w.stale.Load(); n > 0 {
		out = append(out, fmt.Sprintf("wire_kv: %d reads returned a sequence number older than one already seen or acknowledged", n))
	}
	bad := 0
	err := w.db.Run(func(tx *preemptdb.Txn) error {
		bad = 0
		for k, key := range w.keys {
			v, err := tx.Get(kvTable, key)
			if err != nil {
				return err
			}
			if seq, want := binary.LittleEndian.Uint64(v), w.acked[k].Load(); seq != want && seq != want+1 {
				bad++
			}
		}
		return nil
	})
	if err != nil {
		out = append(out, fmt.Sprintf("wire_kv: reading rows back: %v", err))
	}
	if bad > 0 {
		out = append(out, fmt.Sprintf("wire_kv: %d rows do not hold their last acknowledged write", bad))
	}
	return out
}

func (w *wireKV) close() {
	for _, wc := range w.conns {
		wc.cl.Close()
	}
	w.conns = nil
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
