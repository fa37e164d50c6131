package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"preemptdb"
	"preemptdb/internal/admission"
	"preemptdb/internal/clock"
	"preemptdb/internal/dtx"
	"preemptdb/internal/engine"
	"preemptdb/internal/hotcache"
	"preemptdb/internal/index"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/queue"
	"preemptdb/internal/sched"
	"preemptdb/internal/store"
	"preemptdb/internal/uintr"
	"preemptdb/internal/wal"
	"preemptdb/server"
)

// The ladder calls each layer's public functions in isolation, from one
// goroutine, for a fixed operation count, and reports the median of
// ladderRounds rounds (source "L" in the metric table). Nothing contends, so
// a rung prices the layer's instructions, not its waiting.
const ladderRounds = 5

var ladderSink uint64 // keeps measured calls from being optimised away

// rung runs fn(ops) ladderRounds times and returns the median cost per
// operation in nanoseconds. fn returns the time it measured itself.
func rung(out map[string]value, name string, ops int, fn func(n int) int64) {
	per := make([]float64, ladderRounds)
	for i := range per {
		per[i] = float64(fn(ops)) / float64(ops)
	}
	out[name] = value{median(per), uint64(ops * ladderRounds)}
}

// timed wraps a loop body that needs no goroutine of its own.
func timed(body func(n int)) func(n int) int64 {
	return func(n int) int64 {
		t0 := now()
		body(n)
		return now() - t0
	}
}

// onCore runs body on context 0 of a fresh two-context simulated core with a
// preemption handler installed (the PolicyPreempt configuration) and returns
// the time body measured.
func onCore(body func(core *pcontext.Core, ctx *pcontext.Context) int64) int64 {
	core := pcontext.NewCore(0, 2)
	core.SetHandler(func(cur *pcontext.Context, vectors uint64) {})
	done := make(chan int64, 1)
	core.Start([]func(*pcontext.Context){
		func(ctx *pcontext.Context) { done <- body(core, ctx) },
		func(ctx *pcontext.Context) {
			for !core.Done() {
				ctx.SwapContext(core.Context(0))
			}
		},
	})
	el := <-done
	core.Shutdown()
	return el
}

func ladderKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15)
	}
	return keys
}

// runLadder measures every L row. It uses tmpDir for the one rung that
// writes files and removes what it wrote.
func runLadder(seed uint64, tmpDir string) (map[string]value, error) {
	out := map[string]value{}
	r := newRnd(seed, 900)
	keys := ladderKeys(tableRows)
	val := make([]byte, valueBytes)

	rung(out, "clock.nanos_ns", 500000, timed(func(n int) {
		for i := 0; i < n; i++ {
			ladderSink += uint64(clock.Nanos())
		}
	}))

	rcv := uintr.NewReceiver()
	rung(out, "uintr.post_recognize_ns", 500000, timed(func(n int) {
		for i := 0; i < n; i++ {
			uintr.SendUIPI(rcv.UPID(), uintr.VecPing)
			if bm, ok := rcv.Recognize(); ok {
				ladderSink += bm
				rcv.UIRET()
			}
		}
	}))

	rung(out, "pcontext.poll_ns", 2000000, func(n int) int64 {
		return onCore(func(_ *pcontext.Core, ctx *pcontext.Context) int64 {
			t0 := now()
			for i := 0; i < n; i++ {
				ctx.Poll()
			}
			return now() - t0
		})
	})
	rung(out, "pcontext.switch_roundtrip_ns", 50000, func(n int) int64 {
		return onCore(func(core *pcontext.Core, ctx *pcontext.Context) int64 {
			other := core.Context(1)
			t0 := now()
			for i := 0; i < n; i++ {
				ctx.SwapContext(other)
			}
			return now() - t0
		})
	})

	mpmc := queue.NewMPMC[int](64)
	rung(out, "queue.mpmc_pushpop_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			mpmc.Push(i)
			v, _ := mpmc.Pop()
			ladderSink += uint64(v)
		}
	}))
	spsc := queue.NewSPSC[int](64)
	rung(out, "queue.spsc_pushpop_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			spsc.Push(i)
			v, _ := spsc.Pop()
			ladderSink += uint64(v)
		}
	}))

	ladderSched(out)

	adm := admission.New(0, 0, 0)
	rung(out, "admission.admit_release_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			if adm.AdmitDeadline(0) {
				adm.Release()
			}
		}
	}))

	tree := index.New[int]()
	for i, k := range keys {
		tree.Insert(nil, k, i)
	}
	rung(out, "index.get_ns", 200000, timed(func(n int) {
		for i := 0; i < n; i++ {
			v, _ := tree.Get(nil, keys[r.intn(len(keys))])
			ladderSink += uint64(v)
		}
	}))
	rung(out, "index.insert_ns", len(keys), timed(func(n int) {
		t := index.New[int]()
		for i := 0; i < n; i++ {
			t.Insert(nil, keys[i], i)
		}
	}))
	rung(out, "index.scan_ns_per_key", 4*len(keys), timed(func(n int) {
		for done := 0; done < n; done += len(keys) {
			tree.Scan(nil, nil, nil, func(_ []byte, v int) bool {
				ladderSink += uint64(v)
				return true
			})
		}
	}))

	oracle := mvcc.NewOracle()
	slot := oracle.RegisterSlot()
	rec := mvcc.NewRecord()
	seedTx := oracle.Begin(nil, mvcc.SnapshotIsolation, slot)
	if err := seedTx.Update(rec, val); err != nil {
		return nil, err
	}
	if _, err := seedTx.Commit(nil); err != nil {
		return nil, err
	}
	seedTx.Release()
	rung(out, "mvcc.begin_ns", 500000, timed(func(n int) {
		for i := 0; i < n; i++ {
			tx := oracle.Begin(nil, mvcc.SnapshotIsolation, slot)
			tx.Abort()
			tx.Release()
		}
	}))
	rung(out, "mvcc.read_ns", 1000000, timed(func(n int) {
		tx := oracle.Begin(nil, mvcc.SnapshotIsolation, slot)
		for i := 0; i < n; i++ {
			d, _ := tx.Read(rec)
			ladderSink += uint64(len(d))
		}
		tx.Abort()
		tx.Release()
	}))
	rung(out, "mvcc.update_commit_ns", 200000, func(n int) int64 {
		t0 := now()
		for i := 0; i < n; i++ {
			tx := oracle.Begin(nil, mvcc.SnapshotIsolation, slot)
			if tx.Update(rec, val) == nil {
				tx.Commit(nil)
			}
			tx.Release()
		}
		el := now() - t0
		mvcc.Trim(rec, oracle.Clock())
		return el
	})

	var sink byteCounter
	mgr := wal.NewManager(&sink, false)
	buf := wal.NewBuffer()
	rung(out, "wal.commit_ns", 200000, timed(func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			buf.Append(wal.RecUpdate, 1, keys[i%len(keys)], val)
			mgr.Commit(uint64(i+1), uint64(i+1), buf)
		}
	}))

	if err := ladderEngine(out, r, keys, val); err != nil {
		return nil, err
	}

	cache := hotcache.New(hotcache.Config{MaxBytes: 1 << 20})
	const cached = 1024
	for _, k := range keys[:cached] {
		cache.TryFill(cache.FillBegin(1, k), 1, k, val, 1)
	}
	rung(out, "hotcache.lookup_hit_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			v, _ := cache.Lookup(1, keys[i%cached], 2)
			ladderSink += uint64(len(v))
		}
	}))
	rung(out, "hotcache.lookup_miss_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			v, _ := cache.Lookup(1, keys[cached+i%cached], 2)
			ladderSink += uint64(len(v))
		}
	}))

	if err := ladderServer(out, keys[:cached], val); err != nil {
		return nil, err
	}
	if err := ladderDtx(out, keys, val); err != nil {
		return nil, err
	}
	if err := ladderStore(out, tmpDir); err != nil {
		return nil, err
	}

	reg := metrics.NewRegistry()
	rung(out, "metrics.record_ns", 1000000, timed(func(n int) {
		for i := 0; i < n; i++ {
			reg.Observe(metrics.ClassHi, metrics.PhaseExec, 0, int64(1000+i&1023))
		}
	}))
	return out, nil
}

// ladderSched prices the scheduler's submit→run→done path with an empty
// transaction: back to back so the worker never idles (busy round trip), and
// after the worker sat idle for 5 ms (idle wake-up, submit → start).
func ladderSched(out map[string]value) {
	s := sched.New(sched.Config{Policy: sched.PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()
	submit := func(onDone func(*sched.Request)) *sched.Request {
		req := &sched.Request{Work: func(*pcontext.Context) error { return nil }, OnDone: onDone}
		for s.SubmitHighBatch([]*sched.Request{req}) == 0 {
			runtime.Gosched()
		}
		return req
	}
	var done atomic.Bool
	rung(out, "sched.busy_roundtrip_ns", 20000, timed(func(n int) {
		for i := 0; i < n; i++ {
			done.Store(false)
			submit(func(*sched.Request) { done.Store(true) })
			for !done.Load() {
				runtime.Gosched()
			}
		}
	}))
	// The submitter blocks on a channel, as a closed-loop client does, so no
	// goroutine is spinning while the worker sits in its idle back-off.
	const wakes = 25
	woke := make(chan struct{}, 1)
	var h hist
	for i := 0; i < wakes; i++ {
		time.Sleep(5 * time.Millisecond)
		req := submit(func(*sched.Request) { woke <- struct{}{} })
		<-woke
		h.record(req.StartedAt - req.EnqueuedAt)
	}
	out["sched.idle_wake_us"] = value{h.quantile(0.5) / 1e3, wakes}
}

// ladderEngine prices the engine's transaction calls on a 64k-row table.
func ladderEngine(out map[string]value, r *rnd, keys [][]byte, val []byte) error {
	e := engine.New(engine.Config{})
	defer e.Close()
	tab := e.CreateTable("ladder")
	ctx := pcontext.Detached()
	defer e.DetachContext(ctx)
	for lo := 0; lo < len(keys); lo += 4096 {
		tx := e.Begin(ctx)
		for _, k := range keys[lo:min(lo+4096, len(keys))] {
			if err := tx.Insert(tab, k, val); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	rung(out, "engine.get_ns", 200000, timed(func(n int) {
		tx := e.Begin(ctx)
		for i := 0; i < n; i++ {
			v, _ := tx.Get(tab, keys[r.intn(len(keys))])
			ladderSink += uint64(len(v))
		}
		tx.Abort()
	}))
	rung(out, "engine.put_ns", 20000, func(n int) int64 {
		tx := e.Begin(ctx)
		base := r.intn(len(keys) - n)
		t0 := now()
		for i := 0; i < n; i++ {
			tx.Put(tab, keys[base+i], val)
		}
		el := now() - t0
		tx.Abort()
		return el
	})
	rung(out, "engine.commit_ns", 200000, func(n int) int64 {
		t0 := now()
		for i := 0; i < n; i++ {
			tx := e.Begin(ctx)
			if tx.Update(tab, keys[0], val) == nil {
				tx.Commit()
			} else {
				tx.Abort()
			}
		}
		el := now() - t0
		e.Vacuum(ctx)
		return el
	})
	return nil
}

// ladderServer prices one round trip over loopback TCP from one connection:
// a ping (frame + socket, no engine), a Get of a cached key, a Get on a
// server without cache, and a Put. Each is the median of its own round trips.
func ladderServer(out map[string]value, keys [][]byte, val []byte) error {
	open := func(cacheBytes int64) (*preemptdb.DB, *server.Server, *server.Client, error) {
		db, err := preemptdb.Open("", preemptdb.Config{Workers: 1, Policy: preemptdb.PolicyPreempt, CacheBytes: cacheBytes})
		if err != nil {
			return nil, nil, nil, err
		}
		db.CreateTable(kvTable)
		if err := loadKV(db, kvTable, keys, val); err != nil {
			db.Close()
			return nil, nil, nil, err
		}
		srv := server.New(db)
		srv.Logf = func(string, ...any) {}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			db.Close()
			return nil, nil, nil, err
		}
		cl, err := server.Dial(addr.String())
		if err != nil {
			srv.Close()
			db.Close()
			return nil, nil, nil, err
		}
		return db, srv, cl, nil
	}
	p50 := func(name string, n int, op func(i int) error) error {
		var h hist
		for i := 0; i < n; i++ {
			t0 := now()
			if err := op(i); err != nil {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
			h.record(now() - t0)
		}
		out[name] = value{h.quantile(0.5) / 1e3, uint64(n)}
		return nil
	}
	get := func(cl *server.Client, key []byte) error {
		_, err := cl.Txn(wirePriority, []server.ScriptOp{server.GetOp(kvTable, key)})
		return err
	}

	db, srv, cl, err := open(wireCacheBytes)
	if err != nil {
		return err
	}
	err = p50("server.ping_rtt_us", 3000, func(int) error { return cl.Ping() })
	if err == nil {
		err = get(cl, keys[0]) // the first read fills the cache
	}
	if err == nil {
		err = p50("server.get_hit_rtt_us", 3000, func(int) error { return get(cl, keys[0]) })
	}
	if err == nil {
		err = p50("server.put_rtt_us", 300, func(i int) error {
			_, err := cl.Txn(wirePriority, []server.ScriptOp{server.PutOp(kvTable, keys[i%len(keys)], val)})
			return err
		})
	}
	cl.Close()
	srv.Close()
	db.Close()
	if err != nil {
		return err
	}

	db, srv, cl, err = open(0)
	if err != nil {
		return err
	}
	err = p50("server.get_miss_rtt_us", 300, func(i int) error { return get(cl, keys[i%len(keys)]) })
	cl.Close()
	srv.Close()
	db.Close()
	return err
}

// ladderDtx prices one two-participant two-phase commit between two
// in-memory engines, one Put on each.
func ladderDtx(out map[string]value, keys [][]byte, val []byte) error {
	var engs [2]*engine.Engine
	var tabs [2]*engine.Table
	for i := range engs {
		engs[i] = engine.New(engine.Config{ShardID: i})
		defer engs[i].Close()
		tabs[i] = engs[i].CreateTable("ladder")
		dtx.EnsureTable(engs[i])
	}
	ctx := pcontext.Detached()
	defer engs[0].DetachContext(ctx)
	defer engs[1].DetachContext(ctx)
	gid := dtx.GIDBit
	var failed error
	rung(out, "dtx.commit_cross_ns", 5000, timed(func(n int) {
		for i := 0; i < n; i++ {
			gid++
			parts := make([]dtx.Participant, 0, 2)
			for s := range engs {
				tx := engs[s].Begin(ctx)
				if err := tx.Put(tabs[s], keys[i%1024], val); err != nil {
					failed = err
				}
				parts = append(parts, dtx.Participant{Shard: s, Txn: tx, Eng: engs[s]})
			}
			if err := dtx.CommitCrossShard(gid, parts, nil); err != nil {
				failed = err
			}
		}
	}))
	if failed != nil {
		return fmt.Errorf("ladder dtx: %w", failed)
	}
	return nil
}

// ladderStore prices appending to the segmented file log: 1 KiB writes, no
// sync (the flush policy of xshard_transfer).
func ladderStore(out map[string]value, tmpDir string) error {
	dir := filepath.Join(tmpDir, fmt.Sprintf("ladder-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := store.Open(dir)
	if err != nil {
		return err
	}
	l := d.NewLog(0)
	if err := l.Reposition(0); err != nil {
		return err
	}
	chunk := make([]byte, 1024)
	var failed error
	rung(out, "store.log_write_ns_per_kb", 8192, timed(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Write(chunk); err != nil {
				failed = err
			}
		}
		if err := l.MarkBoundary(); err != nil {
			failed = err
		}
	}))
	if err := l.Close(); err != nil && failed == nil {
		failed = err
	}
	if failed != nil {
		return fmt.Errorf("ladder store: %w", failed)
	}
	return nil
}
