package sched_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
	"preemptdb/internal/sched"
	"preemptdb/internal/tpcc"
	"preemptdb/internal/tpch"
)

// mix is one run of the paper's mixed workload (§6.1) on a tiny TPC-C and
// TPC-H: every worker's low-priority queue is kept full of Q2, and every
// tick a batch of NewOrder/Payment goes in through SubmitHighBatch. A tiny
// Q2 takes ≈ 0.1 ms and on one P the generator refills only when Go
// preempts a worker (every 10 ms), so the low queue holds 25 ms of Q2: a
// batch finds its worker inside a Q2, not idle.
type mix struct {
	cfg        sched.Config
	batch      int // high-priority transactions per tick
	yieldEvery int // Q2's handcrafted yield point, every N nested blocks (0: none)
	minHigh    int // high-priority transactions in all; the flood then stops
}

// The window is work, not time: the run ends once every worker has finished
// minQ2 Q2 and all m.minHigh high-priority transactions have committed, or
// the watchdog fails the test. The flood is finite because a regular context
// drains the high-priority queue before it takes the next Q2: a flood that
// outpaces the workers (as it does under -race) would starve Q2 for good.
const (
	loQueue  = 256
	minQ2    = 5
	watchdog = 30 * time.Second
)

// runMix drives m to its work-based window and checks the TPC-C consistency
// conditions before and after. A lost update, a torn commit, or CLS/WAL
// cross-contamination between a paused and a preempting context fails it.
func runMix(t *testing.T, m mix) *sched.Scheduler {
	t.Helper()
	e := engine.New(engine.Config{})
	tpcc.CreateSchema(e)
	tpch.CreateSchema(e)
	ccCfg, err := tpcc.Load(e, tpcc.ScaleConfig{Warehouses: 1, Districts: 2, Customers: 20, Items: 200})
	if err != nil {
		t.Fatal(err)
	}
	hCfg, err := tpch.Load(e, tpch.ScaleConfig{Parts: 800, Suppliers: 40})
	if err != nil {
		t.Fatal(err)
	}
	cc, ch := tpcc.NewClient(e, ccCfg), tpch.NewClient(e, hCfg)
	if err := cc.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after load: %v", err)
	}

	s := sched.New(m.cfg)
	q2Done := make([]atomic.Int64, len(s.Workers()))
	var highDone, seed atomic.Uint64
	failed := make(chan error, 1)
	finish := func(what string, r *sched.Request, ok func()) {
		switch {
		case r.Err == nil:
			ok()
		case !errors.Is(r.Err, sched.ErrStopped):
			select {
			case failed <- fmt.Errorf("%s: %w", what, r.Err):
			default:
			}
		}
	}
	q2 := func(wid int) *sched.Request {
		params := tpch.RandomQ2Params(rng.New(seed.Add(1)))
		return &sched.Request{
			Work: func(ctx *pcontext.Context) error {
				_, err := ch.Q2(ctx, params, m.yieldEvery)
				return err
			},
			OnDone: func(r *sched.Request) { finish("Q2", r, func() { q2Done[wid].Add(1) }) },
		}
	}
	high := func() *sched.Request {
		r := rng.New(seed.Add(1))
		kind, work := "NewOrder", func(ctx *pcontext.Context) error {
			if err := cc.NewOrder(ctx, r, 1); !errors.Is(err, tpcc.ErrUserAbort) {
				return err
			}
			return nil // the specification's 1 % rollback
		}
		if r.Bool(0.5) {
			kind, work = "Payment", func(ctx *pcontext.Context) error { return cc.Payment(ctx, r, 1) }
		}
		return &sched.Request{Work: work, OnDone: func(req *sched.Request) { finish(kind, req, func() { highDone.Add(1) }) }}
	}
	windowDone := func() bool {
		for i := range q2Done {
			if q2Done[i].Load() < minQ2 {
				return false
			}
		}
		return highDone.Load() >= uint64(m.minHigh)
	}

	s.Start()
	deadline := time.Now().Add(watchdog)
	accepted := 0
	for !windowDone() && len(failed) == 0 {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("watchdog: after %v, %d high-priority commits (want %d), Q2 per worker %v (want %d)",
				watchdog, highDone.Load(), m.minHigh, q2Counts(q2Done), minQ2)
		}
		for wid := range q2Done {
			for s.SubmitLow(wid, q2(wid)) {
			}
		}
		batch := make([]*sched.Request, min(m.batch, m.minHigh-accepted))
		for i := range batch {
			batch[i] = high()
		}
		accepted += s.SubmitHighBatch(batch)
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	select {
	case err := <-failed:
		t.Fatal(err)
	default:
	}
	if err := cc.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after %s run: %v", m.cfg.Policy, err)
	}
	return s
}

func q2Counts(done []atomic.Int64) []int64 {
	out := make([]int64, len(done))
	for i := range done {
		out[i] = done[i].Load()
	}
	return out
}

// passiveSwitches is how often a running regular context was preempted.
func passiveSwitches(s *sched.Scheduler) uint64 {
	var n uint64
	for _, w := range s.Workers() {
		n += w.Core().Context(0).TCB().PassiveSwitches()
	}
	return n
}

// generatorHasCore reports whether the submitting goroutine can run beside
// the workers, as the paper's driver does on its own core. On one P it runs
// only when Go preempts a worker, so batches mostly land between Q2 and a
// run may preempt nothing.
func generatorHasCore() bool { return runtime.GOMAXPROCS(0) > 1 }

// TestConsistencyUnderEveryPolicy is the end-to-end correctness oracle for
// the scheduling machinery: after a mixed run with preemption, context
// switches, paused transactions and conflict aborts, the TPC-C consistency
// conditions must hold exactly.
func TestConsistencyUnderEveryPolicy(t *testing.T) {
	for _, policy := range []sched.Policy{
		sched.PolicyWait,
		sched.PolicyCooperative,
		sched.PolicyCooperativeHandcrafted,
		sched.PolicyPreempt,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			m := mix{cfg: sched.Config{Policy: policy, Workers: 2, LoQueueSize: loQueue}, batch: 8, minHigh: 200}
			if policy == sched.PolicyCooperativeHandcrafted {
				m.yieldEvery = 4
			}
			s := runMix(t, m)
			if policy == sched.PolicyPreempt && generatorHasCore() && passiveSwitches(s) == 0 {
				t.Fatal("no Q2 was preempted: the run never paused a low-priority transaction")
			}
		})
	}
}

// TestConsistencyUnderStarvationOverload repeats the oracle under the
// Fig. 12 overload, where the preemptive context and starvation prevention
// are exercised hardest: deep high-priority queues, a batch that fills them
// every tick, and a threshold that holds the flood back for Q2 (or not: on a
// given run the dispatch-time skip may never trigger, so it is not asserted).
func TestConsistencyUnderStarvationOverload(t *testing.T) {
	runMix(t, mix{
		cfg: sched.Config{Policy: sched.PolicyPreempt, Workers: 2, LoQueueSize: loQueue,
			HiQueueSize: 100, StarvationThreshold: 0.5},
		batch:   200,
		minHigh: 2000,
	})
}
