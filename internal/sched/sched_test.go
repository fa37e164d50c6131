package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/uintr"
)

// spinFor busily executes poll loops on ctx for roughly d, simulating a
// long-running transaction with instruction-level preemption points.
func spinFor(ctx *pcontext.Context, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			ctx.Poll()
		}
	}
}

func waitFor(t *testing.T, cond func() bool, timeout time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal(msg)
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyWait:                   "Wait",
		PolicyCooperative:            "Cooperative",
		PolicyCooperativeHandcrafted: "Cooperative (Handcrafted)",
		PolicyPreempt:                "PreemptDB",
	} {
		if p.String() != want {
			t.Errorf("%d = %q, want %q", p, p.String(), want)
		}
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy must format")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 4 || c.HiQueueSize != 4 || c.LoQueueSize != 1 ||
		c.YieldInterval != 10000 || c.StarvationThreshold != 100 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestWaitPolicyRunsBothPriorities(t *testing.T) {
	s := New(Config{Policy: PolicyWait, Workers: 1})
	s.Start()
	defer s.Stop()

	var hi, lo atomic.Int64
	done := make(chan struct{}, 2)
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		lo.Add(1)
		done <- struct{}{}
		return nil
	}})
	s.SubmitHighBatch([]*Request{{Work: func(ctx *pcontext.Context) error {
		hi.Add(1)
		done <- struct{}{}
		return nil
	}}})
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("requests not executed")
		}
	}
	if hi.Load() != 1 || lo.Load() != 1 {
		t.Fatalf("hi=%d lo=%d", hi.Load(), lo.Load())
	}
	// The worker counts a request after its body returns, so the counters
	// can trail the bodies' own signals.
	w := s.Workers()[0]
	waitFor(t, func() bool { return w.ExecutedHigh() == 1 && w.ExecutedLow() == 1 },
		5*time.Second, "worker counters never reached hi=1 lo=1")
}

func TestWaitPolicyHighWaitsForLong(t *testing.T) {
	// Under Wait, a high-priority request submitted mid-long-transaction
	// must not start until the long transaction finishes.
	s := New(Config{Policy: PolicyWait, Workers: 1})
	s.Start()
	defer s.Stop()

	var longDone atomic.Int64
	loFinished := make(chan struct{})
	hiDone := make(chan *Request, 1)
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		spinFor(ctx, 50*time.Millisecond)
		longDone.Store(clock.Nanos())
		close(loFinished)
		return nil
	}})
	time.Sleep(5 * time.Millisecond) // ensure the long txn is running
	req := &Request{Work: func(ctx *pcontext.Context) error { return nil },
		OnDone: func(r *Request) { hiDone <- r }}
	s.SubmitHighBatch([]*Request{req})

	select {
	case r := <-hiDone:
		<-loFinished
		if r.StartedAt < longDone.Load() {
			t.Fatal("Wait policy started high-priority before long txn ended")
		}
		if r.SchedulingLatency() < int64(10*time.Millisecond) {
			t.Fatalf("scheduling latency %v suspiciously low for Wait", time.Duration(r.SchedulingLatency()))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request starved")
	}
}

func TestPreemptPolicyInterruptsLong(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()

	loDone := make(chan struct{})
	hiDone := make(chan *Request, 1)
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		spinFor(ctx, 100*time.Millisecond)
		close(loDone)
		return nil
	}})
	time.Sleep(5 * time.Millisecond)
	req := &Request{Work: func(ctx *pcontext.Context) error { return nil },
		OnDone: func(r *Request) { hiDone <- r }}
	s.SubmitHighBatch([]*Request{req})

	select {
	case r := <-hiDone:
		select {
		case <-loDone:
			t.Fatal("high-priority did not preempt: long txn finished first")
		default:
		}
		if lat := r.SchedulingLatency(); lat > int64(20*time.Millisecond) {
			t.Fatalf("preemption scheduling latency %v too high", time.Duration(lat))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request not executed")
	}
	<-loDone // long txn must still complete (paused, not aborted)
	if s.InterruptsSent() == 0 {
		t.Fatal("no interrupts sent under PolicyPreempt")
	}
	w := s.Workers()[0]
	if w.Core().Context(0).TCB().PassiveSwitches() == 0 {
		t.Fatal("no passive switch recorded")
	}
}

func TestCooperativePolicyYields(t *testing.T) {
	s := New(Config{Policy: PolicyCooperative, Workers: 1, YieldInterval: 1000})
	s.Start()
	defer s.Stop()

	loDone := make(chan struct{})
	hiDone := make(chan *Request, 1)
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		spinFor(ctx, 100*time.Millisecond)
		close(loDone)
		return nil
	}})
	time.Sleep(5 * time.Millisecond)
	req := &Request{Work: func(ctx *pcontext.Context) error { return nil },
		OnDone: func(r *Request) { hiDone <- r }}
	s.SubmitHighBatch([]*Request{req})

	select {
	case <-hiDone:
		select {
		case <-loDone:
			t.Fatal("cooperative yield did not happen before long txn end")
		default:
		}
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request not executed")
	}
	<-loDone
	if s.InterruptsSent() != 0 {
		t.Fatal("cooperative policy must not send interrupts")
	}
	w := s.Workers()[0]
	if w.Core().Context(0).TCB().ActiveSwitches() == 0 {
		t.Fatal("no voluntary switch recorded")
	}
}

func TestHandcraftedYield(t *testing.T) {
	s := New(Config{Policy: PolicyCooperativeHandcrafted, Workers: 1})
	s.Start()
	defer s.Stop()

	loDone := make(chan struct{})
	hiDone := make(chan *Request, 1)
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		deadline := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(deadline) {
			for i := 0; i < 64; i++ {
				ctx.Poll()
			}
			Yield(ctx) // workload-placed yield point
		}
		close(loDone)
		return nil
	}})
	time.Sleep(5 * time.Millisecond)
	req := &Request{Work: func(ctx *pcontext.Context) error { return nil },
		OnDone: func(r *Request) { hiDone <- r }}
	s.SubmitHighBatch([]*Request{req})

	select {
	case <-hiDone:
		select {
		case <-loDone:
			t.Fatal("handcrafted yield did not serve high-priority in time")
		default:
		}
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request not executed")
	}
	<-loDone
}

func TestYieldOnDetachedContextSafe(t *testing.T) {
	Yield(nil)
	Yield(pcontext.Detached())
	core := pcontext.NewCore(0, 1) // core without scheduler user data
	Yield(core.Context(0))
}

func TestStarvationPreventionLimitsHighWork(t *testing.T) {
	// With threshold 0, the preemptive context must execute nothing; the
	// high-priority request completes only after the long txn, via the
	// regular path.
	s := New(Config{Policy: PolicyPreempt, Workers: 1, StarvationThreshold: 0.000001, HiQueueSize: 16})
	s.Start()
	defer s.Stop()

	loDone := make(chan struct{})
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		spinFor(ctx, 60*time.Millisecond)
		close(loDone)
		return nil
	}})
	time.Sleep(5 * time.Millisecond)

	var hiFinished atomic.Int64
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = &Request{Work: func(ctx *pcontext.Context) error { return nil },
			OnDone: func(r *Request) { hiFinished.Add(1) }}
	}
	s.SubmitHighBatch(reqs)
	time.Sleep(20 * time.Millisecond)
	// Long txn still running: almost nothing should have executed.
	select {
	case <-loDone:
		t.Skip("long transaction finished too quickly to observe starvation prevention")
	default:
	}
	if hiFinished.Load() > 1 {
		t.Fatalf("starvation threshold ~0 admitted %d high-priority txns mid-Q2", hiFinished.Load())
	}
	<-loDone
	waitFor(t, func() bool { return hiFinished.Load() == int64(len(reqs)) },
		5*time.Second, "queued high-priority txns never drained via regular path")
}

func TestSchedulerSideStarvationSkip(t *testing.T) {
	// Decision point 1 from §5: the scheduler must not push to (or
	// interrupt) a worker whose starvation level exceeds the threshold.
	// Drive the core's starvation meter directly for determinism.
	s := New(Config{Policy: PolicyPreempt, Workers: 1, StarvationThreshold: 0.5, HiQueueSize: 4})
	w := s.Workers()[0] // not started: queues and meters are inert
	w.Core().Context(0).BeginLowPrio()
	time.Sleep(2 * time.Millisecond)
	w.Core().AddHighPrioNanos(int64(time.Hour)) // L ≫ 0.5

	reqs := []*Request{
		{Work: func(ctx *pcontext.Context) error { return nil }},
		{Work: func(ctx *pcontext.Context) error { return nil }},
	}
	if accepted := s.SubmitHighBatch(reqs); accepted != 0 {
		t.Fatalf("starved worker accepted %d requests", accepted)
	}
	if s.StarvationSkips() == 0 {
		t.Fatal("skip not recorded")
	}
	if s.InterruptsSent() != 0 {
		t.Fatal("interrupt sent to starved worker")
	}

	// The level freezes at transaction end — the worker keeps refusing
	// traffic between low-priority transactions (§5 semantics that give
	// fig12's thr=0 its maximum-Q2 behaviour)...
	w.Core().Context(0).EndLowPrio()
	if accepted := s.SubmitHighBatch(reqs); accepted != 0 {
		t.Fatalf("frozen-starved worker accepted %d", accepted)
	}
	// ...and resets when the next low-priority transaction starts.
	w.Core().Context(0).BeginLowPrio()
	if accepted := s.SubmitHighBatch(reqs); accepted != 2 {
		t.Fatalf("recovered worker accepted %d", accepted)
	}
}

func TestSubmitHighBatchFullQueues(t *testing.T) {
	s := New(Config{Policy: PolicyWait, Workers: 2, HiQueueSize: 2})
	// Not started: queues fill and stay full.
	reqs := make([]*Request, 10)
	for i := range reqs {
		reqs[i] = &Request{Work: func(ctx *pcontext.Context) error { return nil }}
	}
	accepted := s.SubmitHighBatch(reqs)
	if accepted != 4 { // 2 workers × queue size 2
		t.Fatalf("accepted %d, want 4", accepted)
	}
	if s.SubmitHighBatch(reqs[accepted:]) != 0 {
		t.Fatal("full queues accepted more")
	}
}

func TestSubmitLowFullQueue(t *testing.T) {
	s := New(Config{Policy: PolicyWait, Workers: 1, LoQueueSize: 1})
	r := &Request{Work: func(ctx *pcontext.Context) error { return nil }}
	if !s.SubmitLow(0, r) {
		t.Fatal("first push failed")
	}
	if s.SubmitLow(0, r) {
		t.Fatal("full low queue accepted")
	}
}

func TestPingAllOverheadPath(t *testing.T) {
	// Empty interrupts (no queued high-priority work, the paper's Fig. 8
	// overhead path) must be absorbed without executing anything and without
	// wedging the workers.
	s := New(Config{Policy: PolicyPreempt, Workers: 2})
	s.Start()
	defer s.Stop()

	stop, done := make(chan struct{}), make(chan struct{})
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		defer close(done)
		for {
			select {
			case <-stop:
				return nil
			default:
				ctx.Poll()
				runtime.Gosched() // let the sender run on one P
			}
		}
	}})
	core := s.Workers()[0].Core()
	delivered := func() uint64 { n, _ := core.DeliveryStats(); return n }
	deadline := time.Now().Add(5 * time.Second)
	for delivered() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("worker recognized %d of the posted empty interrupts", delivered())
		}
		for _, w := range s.Workers() {
			uintr.SendUIPI(w.Core().Receiver().UPID(), uintr.VecPreempt)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker wedged by empty interrupts")
	}
	// No high-priority work existed, so no switches should have happened.
	if core.Context(0).TCB().PassiveSwitches() != 0 {
		t.Fatal("empty interrupt caused a context switch")
	}
}

func TestRequestLatencyAccessors(t *testing.T) {
	r := &Request{EnqueuedAt: 100, StartedAt: 150, FinishedAt: 400}
	if r.SchedulingLatency() != 50 || r.Latency() != 300 {
		t.Fatalf("sched=%d e2e=%d", r.SchedulingLatency(), r.Latency())
	}
}

func TestErrorRecorded(t *testing.T) {
	s := New(Config{Policy: PolicyWait, Workers: 1})
	s.Start()
	defer s.Stop()
	done := make(chan *Request, 1)
	s.SubmitHighBatch([]*Request{{
		Work:   func(ctx *pcontext.Context) error { return errSentinel },
		OnDone: func(r *Request) { done <- r },
	}})
	select {
	case r := <-done:
		if r.Err != errSentinel {
			t.Fatalf("err = %v", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request not executed")
	}
}

var errSentinel = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestNewRejectsContextsPerCoreOtherThanTwo: a core is the paper's regular
// context plus its preemptive context, so 0 (the default) and 2 build a
// scheduler and every other value panics.
func TestNewRejectsContextsPerCoreOtherThanTwo(t *testing.T) {
	for _, k := range []int{0, 2} {
		s := New(Config{Workers: 1, ContextsPerCore: k})
		if got := s.Config().ContextsPerCore; got != 2 {
			t.Fatalf("ContextsPerCore %d: effective %d, want 2", k, got)
		}
		if n := s.Workers()[0].Core().NumContexts(); n != 2 {
			t.Fatalf("ContextsPerCore %d: core has %d contexts, want 2", k, n)
		}
	}
	for _, k := range []int{-1, 1, 3, 4, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with ContextsPerCore %d did not panic", k)
				}
			}()
			New(Config{Workers: 1, ContextsPerCore: k})
		}()
	}
}

func TestStartTwicePanics(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer s.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Start()
}

func TestManyWorkersRoundRobin(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 4, HiQueueSize: 2})
	s.Start()
	defer s.Stop()
	var n atomic.Int64
	const total = 64
	for i := 0; i < total; i += 8 {
		reqs := make([]*Request, 8)
		for j := range reqs {
			reqs[j] = &Request{Work: func(ctx *pcontext.Context) error { n.Add(1); return nil }}
		}
		for submitted := 0; submitted < len(reqs); {
			submitted += s.SubmitHighBatch(reqs[submitted:])
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor(t, func() bool { return n.Load() == total }, 5*time.Second, "not all executed")
	// Work should be spread across all workers.
	for _, w := range s.Workers() {
		if w.ExecutedHigh() == 0 {
			t.Fatalf("worker %d executed nothing", w.ID())
		}
	}
}

// TestConcurrentSubmitLowLosesNoRequest: any goroutine may submit (every
// server connection does), so racing SubmitLow calls into one worker's low
// queue must each either be refused or run to OnDone — never overwrite one
// another in a queue slot.
func TestConcurrentSubmitLowLosesNoRequest(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 1, LoQueueSize: 8})
	s.Start()
	defer s.Stop()

	const producers, perProducer = 4, 10000
	var done atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				req := &Request{
					Work:   func(*pcontext.Context) error { return nil },
					OnDone: func(*Request) { done.Add(1) },
				}
				for !s.SubmitLow(0, req) {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return done.Load() == producers*perProducer },
		30*time.Second, "accepted low-priority requests never reached OnDone")
}

// TestConcurrentSubmitHighBatch: racing SubmitHighBatch callers share the
// round-robin cursor; every accepted request completes.
func TestConcurrentSubmitHighBatch(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 2})
	s.Start()
	defer s.Stop()

	const producers, perProducer = 4, 2000
	var done atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				req := &Request{
					Work:   func(*pcontext.Context) error { return nil },
					OnDone: func(*Request) { done.Add(1) },
				}
				for s.SubmitHighBatch([]*Request{req}) == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return done.Load() == producers*perProducer },
		30*time.Second, "accepted high-priority requests never reached OnDone")
}
