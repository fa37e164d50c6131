package main

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
	"preemptdb/internal/sched"
	"preemptdb/internal/tpcc"
	"preemptdb/internal/tpch"
)

const (
	htapInterval   = int64(time.Millisecond) // arrival interval of foreground batches
	htapPerWorker  = 2                       // NewOrder/Payment per worker per interval
	htapTraceEvery = 1
)

// htapMix is the paper's §6.1 mixed workload, open loop, driven the way the
// paper's driver does it: one generator (the calling goroutine) owns a CPU,
// spins on the clock, keeps every worker's low-priority queue topped up with
// TPC-H Q2 — it is the only producer, as the SPSC queue requires — and every
// millisecond submits one batch of 2·W NewOrder/Payment stamped with the
// time the batch was due. A late batch is never scaled up or merged with the
// next. What does not fit the four-slot queues waits in the generator's
// backlog, in due order and keeping its due time, so a stall shows as latency.
// When the window closes the generator stops making batches and keeps feeding
// both queues until the backlog is empty: a request that was due inside the
// window is measured, however late. Overload therefore reads as latency, never
// as failures. Only when the queues have accepted nothing for two seconds (a
// hung worker) are the requests due longer ago than that dropped and counted
// as failed, so the loop always ends.
type htapMix struct {
	e   *env
	eng *engine.Engine
	cc  *tpcc.Client
	ch  *tpch.Client
	s   *sched.Scheduler
	gen *rnd
	// skew translates the benchmark's clock into the scheduler's
	// (clock.Nanos), which stamps Request.StartedAt.
	skew int64
	rows int // records loaded, for mvcc.chain_len_mean

	lowPending []*bgReq         // next Q2 per worker, kept until its queue has room
	backlog    []*sched.Request // generated but not yet accepted by a queue, oldest first
	backlogDue []int64

	mu                 sync.Mutex // guards what worker-side OnDone callbacks write
	fg, bg, qwait      hist
	fgDone, fgErr      uint64
	bgDone, bgErr      uint64
	lag, submitNs      hist // generator-side, no lock
	generated, dropped uint64
	abandoned          uint64
	tb                 *traceBuf
	tbOn               bool
	lastWork           float64
	before, after      htapCounters
}

type bgReq struct {
	req  *sched.Request
	enq  int64
	rt   *reqTrace
	root int8
}

// htapCounters are the public counters read before and after the window.
type htapCounters struct {
	interrupts, skips, passive, active uint64
	deliveries                         uint64
	deliverySumNs                      float64
	restarts, commits, aborts          uint64
	logBytes, logBatches               uint64
}

func (w *htapMix) counters() htapCounters {
	c := htapCounters{
		interrupts: w.s.InterruptsSent(), skips: w.s.StarvationSkips(),
		restarts: w.eng.IndexRestarts(), commits: w.eng.Commits(), aborts: w.eng.Aborts(),
		logBytes: w.eng.Log().LSN(), logBatches: w.eng.Log().Batches(),
	}
	for _, wk := range w.s.Workers() {
		n, mean := wk.Core().DeliveryStats()
		c.deliveries += n
		c.deliverySumNs += float64(n) * mean
		for i := 0; i < wk.Core().NumContexts(); i++ {
			tcb := wk.Core().Context(i).TCB()
			c.passive += tcb.PassiveSwitches()
			c.active += tcb.ActiveSwitches()
		}
	}
	return c
}

func (w *htapMix) setup(e *env) error {
	w.e = e
	w.gen = newRnd(e.seed, 1)
	w.eng = engine.New(engine.Config{}) // no background vacuum: the paper's configuration
	tpcc.CreateSchema(w.eng)
	tpch.CreateSchema(w.eng)
	ccCfg, err := tpcc.Load(w.eng, tpcc.ScaleConfig{Warehouses: e.workers, Districts: 4, Customers: 64, Items: 2000, Seed: e.seed + 1})
	if err != nil {
		return fmt.Errorf("tpcc load: %w", err)
	}
	hCfg, err := tpch.Load(w.eng, tpch.ScaleConfig{Parts: 60000, Suppliers: 400, Seed: e.seed + 2})
	if err != nil {
		return fmt.Errorf("tpch load: %w", err)
	}
	w.cc = tpcc.NewClient(w.eng, ccCfg)
	w.ch = tpch.NewClient(w.eng, hCfg)
	for _, t := range []string{tpcc.TabWarehouse, tpcc.TabDistrict, tpcc.TabCustomer, tpcc.TabHistory,
		tpcc.TabNewOrder, tpcc.TabOrders, tpcc.TabOrderLine, tpcc.TabItem, tpcc.TabStock,
		tpch.TabRegion, tpch.TabNation, tpch.TabSupplier, tpch.TabPart, tpch.TabPartSupp} {
		w.rows += w.eng.MustTable(t).Len()
	}
	w.s = sched.New(sched.Config{
		Policy: sched.PolicyPreempt, Workers: e.workers, ContextsPerCore: 2,
		HiQueueSize: 4, LoQueueSize: 1,
	})
	w.s.Start()
	w.skew = clock.Nanos() - now()
	w.lowPending = make([]*bgReq, e.workers)
	if e.spans {
		w.tb = newTraceBuf(traceBufReqs/2, htapTraceEvery, 0)
		w.tbOn = true
	}
	return nil
}

func (w *htapMix) trace() *reqTrace {
	if !w.tbOn {
		return nil
	}
	return w.tb.next()
}

// newQ2 builds one background request. Its parameters come from the
// generator's stream, so one seed gives one sequence of queries.
func (w *htapMix) newQ2() *bgReq {
	params := tpch.RandomQ2Params(rng.New(w.gen.next()))
	q := &bgReq{rt: w.trace()}
	q.root = q.rt.add(spBgOp, -1, 0, 0)
	q.req = &sched.Request{
		Work: func(ctx *pcontext.Context) error {
			if q.rt == nil {
				_, err := w.ch.Q2(ctx, params, 0)
				return err
			}
			e0 := now()
			_, err := w.ch.Q2(ctx, params, 0)
			e1 := now()
			exec := q.rt.add(spExec, q.root, e0, e1)
			q.rt.add(spQ2, exec, e0, e1)
			return err
		},
		OnDone: func(r *sched.Request) {
			t := now()
			w.mu.Lock()
			if r.Err != nil {
				w.bgErr++
			} else {
				w.bg.record(t - q.enq)
			}
			w.bgDone++
			w.mu.Unlock()
			if q.rt != nil {
				q.rt.spans[q.root].start, q.rt.spans[q.root].end = q.enq, t
				q.rt.add(spQueueWait, q.root, q.enq, r.StartedAt-w.skew)
			}
		},
	}
	return q
}

// newFg builds one foreground request due at due: NewOrder or Payment, half
// each, on a uniformly chosen warehouse, with its own input stream.
func (w *htapMix) newFg(due, submitStart int64) *sched.Request {
	payment := w.gen.next()&1 == 1
	wh := uint32(1 + w.gen.intn(w.e.workers))
	seed := w.gen.next()
	rt := w.trace()
	root := rt.add(spOp, -1, due, due)
	rt.add(spGenLag, root, due, submitStart)
	var execEnd int64
	req := &sched.Request{EnqueuedAt: due + w.skew}
	req.Work = func(ctx *pcontext.Context) error {
		r := rng.New(seed)
		var e0 int64
		if rt != nil {
			e0 = now()
		}
		var err error
		run := func() {
			if payment {
				err = w.cc.Payment(ctx, r, wh)
			} else if err = w.cc.NewOrder(ctx, r, wh); errors.Is(err, tpcc.ErrUserAbort) {
				err = nil // the specification's 1 % rollback
			}
		}
		if ctx.ID() == ctx.Core().NumContexts()-1 {
			run() // on the preemptive context, where nothing interrupts it
		} else {
			// A low slot picked the request up between two Q2. sched would
			// let the next batch preempt it (README, "Known hazards"): the
			// preempting transaction conflicts with this one's writes, burns
			// its retries and fails, and while the hi queue is fed this one
			// never resumes. The paper does not interrupt a high-priority
			// transaction in progress; hold that here.
			pcontext.NonPreemptible(ctx, run)
		}
		if rt != nil {
			execEnd = now()
			exec := rt.add(spExec, root, e0, execEnd)
			if payment {
				rt.add(spPayment, exec, e0, execEnd)
			} else {
				rt.add(spNewOrder, exec, e0, execEnd)
			}
		}
		return err
	}
	req.OnDone = func(r *sched.Request) {
		t := now()
		started := r.StartedAt - w.skew
		w.mu.Lock()
		if r.Err != nil {
			w.fgErr++
		} else {
			w.fg.record(t - due)
			w.qwait.record(started - submitStart)
		}
		w.fgDone++
		w.mu.Unlock()
		if rt != nil {
			rt.spans[root].end = t
			rt.add(spQueueWait, root, submitStart, started)
			rt.add(spCommitDone, root, execEnd, t)
		}
	}
	return req
}

// drive is the generator loop. It returns once the clock has passed until and
// the backlog is empty, or, when until is 0, once fgTarget foreground
// transactions have completed.
func (w *htapMix) drive(until int64, fgTarget uint64) {
	perBatch := htapPerWorker * w.e.workers
	nextDue := now()
	lastAccept := nextDue // when a queue last took a request, or the backlog was last empty
	for {
		t := now()
		closing := until != 0 && t >= until
		if closing && len(w.backlog) == 0 {
			break
		}
		if until == 0 {
			w.mu.Lock()
			done := w.fgDone
			w.mu.Unlock()
			if done >= fgTarget {
				break
			}
		}
		for wid := range w.lowPending {
			if w.lowPending[wid] == nil {
				w.lowPending[wid] = w.newQ2()
			}
			q := w.lowPending[wid]
			q.req.EnqueuedAt = 0 // let the scheduler stamp the attempt that succeeds
			q.enq = t
			if w.s.SubmitLow(wid, q.req) {
				w.lowPending[wid] = nil
			}
		}
		due := !closing && t >= nextDue
		if due {
			w.lag.record(t - nextDue)
			for i := 0; i < perBatch; i++ {
				w.backlog = append(w.backlog, w.newFg(nextDue, t))
				w.backlogDue = append(w.backlogDue, nextDue)
			}
			w.generated += uint64(perBatch)
			nextDue += htapInterval
		}
		if len(w.backlog) == 0 {
			lastAccept = t
			continue
		}
		for t-lastAccept > watchdogNs && len(w.backlog) > 0 && t-w.backlogDue[0] > watchdogNs {
			w.dropped++
			w.backlog, w.backlogDue = w.backlog[1:], w.backlogDue[1:]
		}
		n := w.s.SubmitHighBatch(w.backlog)
		if n > 0 {
			lastAccept = t
		}
		if due && n > 0 {
			w.submitNs.record((now() - t) / int64(n))
		}
		w.backlog, w.backlogDue = w.backlog[n:], w.backlogDue[n:]
		if len(w.backlog) == 0 {
			w.backlog, w.backlogDue = w.backlog[:0:0], w.backlogDue[:0:0]
		}
	}
}

func (w *htapMix) warm() {
	w.drive(0, warmOps)
	w.endPhase()
}

func (w *htapMix) run(d time.Duration) float64 {
	w.mu.Lock()
	w.fg.reset()
	w.bg.reset()
	w.qwait.reset()
	w.fgDone, w.fgErr, w.bgDone, w.bgErr = 0, 0, 0, 0
	w.mu.Unlock()
	w.lag.reset()
	w.submitNs.reset()
	w.generated, w.dropped, w.abandoned = 0, 0, 0
	if w.tb != nil {
		w.tb.used, w.tb.seen, w.tb.dropped = 0, 0, 0
	}
	w.before = w.counters()
	t0 := now()
	w.drive(t0+int64(d), 0)
	windowS := float64(now()-t0) / 1e9
	w.abandoned = w.endPhase()
	w.after = w.counters()
	w.mu.Lock()
	w.lastWork = float64(w.bgDone)
	w.mu.Unlock()
	return windowS
}

// endPhase drops what is still in the backlog (warm-up only: a window drains
// it), then waits for the submitted foreground transactions to complete, at
// most as long as the watchdog allows, and returns how many it gave up on.
func (w *htapMix) endPhase() uint64 {
	w.dropped += uint64(len(w.backlog))
	w.backlog, w.backlogDue = nil, nil
	want := w.generated - w.dropped
	deadline := now() + watchdogNs
	for {
		w.mu.Lock()
		done := w.fgDone
		w.mu.Unlock()
		if done >= want {
			return 0
		}
		if now() > deadline {
			return want - done
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (w *htapMix) collect(res *passResult, windowS float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	failed := w.dropped + w.fgErr + w.abandoned
	fillCommon(res, &w.fg, w.generated, failed, windowS)
	res.setE("bg_tps", float64(w.bg.n)/windowS, w.bg.n)
	res.setE("bg_p50_ms", w.bg.quantile(0.5)/1e6, w.bg.n)
	lagP99 := w.lag.quantile(0.99) / 1e3
	if lagP90 := w.lag.quantile(0.90) / 1e3; lagP90 > genLagLimitUs {
		res.Invalid = fmt.Sprintf("the generator fell behind: more than a tenth of its batches went out over %d µs late (p90 %.0f µs, p99 %.0f µs)", genLagLimitUs, lagP90, lagP99)
	}
	if failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("failed: %d dropped from the backlog, %d ended in error, %d abandoned by the watchdog", w.dropped, w.fgErr, w.abandoned))
	}
	if !w.e.spans {
		return
	}
	res.setL("gen.lag_p99_us", lagP99, w.lag.n)
	res.setL("sched.submit_ns", w.submitNs.quantile(0.5), w.submitNs.n)
	res.setL("sched.queue_wait_p50_us", w.qwait.quantile(0.5)/1e3, w.qwait.n)
	res.setL("sched.queue_wait_p99_us", w.qwait.quantile(0.99)/1e3, w.qwait.n)
	b, a := w.before, w.after
	fgOps := float64(max(w.fg.n, 1))
	if n := a.deliveries - b.deliveries; n > 0 {
		res.setL("uintr.delivery_mean_ns", (a.deliverySumNs-b.deliverySumNs)/float64(n), n)
	}
	res.setL("uintr.interrupts_per_fg_txn", float64(a.interrupts-b.interrupts)/fgOps, a.interrupts-b.interrupts)
	res.setL("pcontext.passive_switches_per_s", float64(a.passive-b.passive)/windowS, a.passive-b.passive)
	res.setL("pcontext.active_switches_per_s", float64(a.active-b.active)/windowS, a.active-b.active)
	res.setL("sched.dropped_fg", float64(w.dropped), w.generated)
	res.setL("sched.starvation_skips", float64(a.skips-b.skips), w.generated)
	res.setL("index.restarts_per_kop", float64(a.restarts-b.restarts)/(fgOps/1e3), a.restarts-b.restarts)
	if n := a.commits - b.commits; n > 0 {
		res.setL("wal.bytes_per_txn", float64(a.logBytes-b.logBytes)/float64(n), n)
		res.setL("engine.aborts_per_ktxn", float64(a.aborts-b.aborts)/float64(n)*1e3, n)
	}
	if n := a.logBatches - b.logBatches; n > 0 {
		res.setL("wal.txns_per_batch", float64(a.commits-b.commits)/float64(n), n)
	}
	snap := w.s.Metrics().Snapshot()
	lo := snap.Lo
	if busy := lo.Exec.Mean*float64(lo.Exec.Count) + lo.PauseTotal.Mean*float64(lo.PauseTotal.Count); busy > 0 {
		res.setL("tpch.q2_pause_share", lo.PauseTotal.Mean*float64(lo.PauseTotal.Count)/busy, lo.Exec.Count)
	}
	// Versions a vacuum can reclaim now are the chains' excess over one
	// version per record (the public API does not expose single records).
	res.setL("mvcc.chain_len_mean", 1+float64(w.eng.Vacuum(nil))/float64(w.rows), uint64(w.rows))
}

func (w *htapMix) work() float64 { return w.lastWork }

func (w *htapMix) setSpans(on bool) { w.tbOn = on && w.tb != nil }

func (w *htapMix) traces() []*traceBuf { return []*traceBuf{w.tb} }

// check: the TPC-C consistency conditions hold, and Q2 on the loaded data
// returns what the reference implementation returns.
func (w *htapMix) check(*passResult) []string {
	var out []string
	if err := w.cc.CheckConsistency(); err != nil {
		out = append(out, fmt.Sprintf("htap_mix: TPC-C consistency: %v", err))
	}
	params := tpch.RandomQ2Params(rng.New(w.e.seed + 3))
	got, err := w.ch.Q2(nil, params, 0)
	if err != nil {
		out = append(out, fmt.Sprintf("htap_mix: Q2: %v", err))
	} else if want := w.ch.Q2Reference(params); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		out = append(out, fmt.Sprintf("htap_mix: Q2 returned %d rows that differ from the reference's %d", len(got), len(want)))
	}
	w.mu.Lock()
	if w.bgErr > 0 {
		out = append(out, fmt.Sprintf("htap_mix: %d Q2 ended in error", w.bgErr))
	}
	w.mu.Unlock()
	return out
}

func (w *htapMix) close() {
	if w.s != nil {
		w.s.Stop()
		w.s = nil
	}
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}
