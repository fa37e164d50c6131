package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/engine"
	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
)

// holdUntil is the body of a request that holds its context until release is
// set, polling all the while, and then passes one more instruction boundary:
// an interrupt posted before release is recognized there at the latest.
func holdUntil(ctx *pcontext.Context, release *atomic.Bool) {
	for !release.Load() {
		ctx.Poll()
		runtime.Gosched()
	}
	ctx.Poll()
}

// waitChan fails the test when ch is not closed within five seconds.
func waitChan(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

// TestHighPriorityTxnNeverInterrupted: a high-priority transaction the
// regular context took from the queue is not paused for a batch that arrives
// while it runs. Pausing it would hand the core to a batch that conflicts on
// the key the paused transaction holds — the batch could only fail or retry
// against a holder that cannot run.
func TestHighPriorityTxnNeverInterrupted(t *testing.T) {
	e := engine.New(engine.Config{})
	tab := e.CreateTable("kv")
	k := []byte("k")
	seed := e.Begin(nil)
	if err := seed.Put(tab, k, []byte("0")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Policy: PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()

	var release atomic.Bool
	var aCtx atomic.Int64
	aHolds, aDone, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	a := &Request{
		Work: func(ctx *pcontext.Context) error {
			aCtx.Store(int64(ctx.ID()))
			tx := e.Begin(ctx)
			defer tx.Abort()
			if err := tx.Put(tab, k, []byte("a")); err != nil {
				return err
			}
			close(aHolds)
			holdUntil(ctx, &release)
			return tx.Commit()
		},
		OnDone: func(*Request) { close(aDone) },
	}
	var bConflicts atomic.Int64
	b := &Request{
		Work: func(ctx *pcontext.Context) error {
			tx := e.Begin(ctx)
			defer tx.Abort()
			if err := tx.Put(tab, k, []byte("b")); err != nil {
				if engine.IsConflict(err) {
					bConflicts.Add(1)
				}
				return err
			}
			return tx.Commit()
		},
		OnDone: func(*Request) { close(bDone) },
	}

	if s.SubmitHighBatch([]*Request{a}) != 1 {
		t.Fatal("A refused")
	}
	waitChan(t, aHolds, "A never started")
	if s.SubmitHighBatch([]*Request{b}) != 1 {
		t.Fatal("B refused")
	}
	release.Store(true)
	waitChan(t, aDone, "A never finished")
	waitChan(t, bDone, "B never finished")

	if id := aCtx.Load(); id != 0 {
		t.Fatalf("A ran on context %d, want the regular context 0", id)
	}
	if n := s.Metrics().Phase(metrics.ClassHi, metrics.PhasePause).Count(); n != 0 {
		t.Fatalf("high-priority A was paused %d times, want 0", n)
	}
	if a.Err != nil {
		t.Fatalf("A: %v", a.Err)
	}
	if a.FinishedAt > b.StartedAt {
		t.Fatalf("B started %d ns before A finished", a.FinishedAt-b.StartedAt)
	}
	if b.Err != nil || bConflicts.Load() != 0 {
		t.Fatalf("B: err %v, conflicts %d; want a clean commit", b.Err, bConflicts.Load())
	}
}

// TestHeldBackBatchRunsNext: the batch whose interrupt was dropped because a
// high-priority transaction held the regular context is not stranded behind
// queued low-priority work — the regular context takes it next.
func TestHeldBackBatchRunsNext(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 1, LoQueueSize: 1})
	s.Start()
	defer s.Stop()

	var release atomic.Bool
	aHolds := make(chan struct{})
	var done atomic.Int64
	onDone := func(*Request) { done.Add(1) }
	a := &Request{
		Work: func(ctx *pcontext.Context) error {
			close(aHolds)
			holdUntil(ctx, &release)
			return nil
		},
		OnDone: onDone,
	}
	b := &Request{Work: func(*pcontext.Context) error { return nil }, OnDone: onDone}
	low := &Request{Work: func(*pcontext.Context) error { return nil }, OnDone: onDone}

	if s.SubmitHighBatch([]*Request{a}) != 1 {
		t.Fatal("A refused")
	}
	waitChan(t, aHolds, "A never started")
	if !s.SubmitLow(0, low) {
		t.Fatal("low request refused")
	}
	if s.SubmitHighBatch([]*Request{b}) != 1 {
		t.Fatal("B refused")
	}
	release.Store(true)
	waitFor(t, func() bool { return done.Load() == 3 }, 5*time.Second, "requests never drained")

	if a.FinishedAt > b.StartedAt {
		t.Fatalf("B interrupted A: started %d ns before A finished", a.FinishedAt-b.StartedAt)
	}
	if b.FinishedAt > low.StartedAt {
		t.Fatalf("B stranded behind low-priority work: low started %d ns before B finished",
			b.FinishedAt-low.StartedAt)
	}
}

// TestStopWhilePreemptiveHoldsPausedContext: Stop while the preemptive
// context runs a high-priority request over a paused low-priority one. The
// preemptive loop stamps its hand-back and returns, and only then does the
// core resume the paused context, whose switch returns at once; both
// requests complete, and under -race an unordered resume stamp would show.
func TestStopWhilePreemptiveHoldsPausedContext(t *testing.T) {
	for i := 0; i < 50; i++ {
		s := New(Config{Policy: PolicyPreempt, Workers: 1})
		s.Start()
		var done atomic.Int64
		lowRuns, hiRuns := make(chan struct{}), make(chan struct{})
		low := &Request{
			Work: func(ctx *pcontext.Context) error {
				close(lowRuns)
				for !ctx.Core().Done() {
					ctx.Poll()
					runtime.Gosched()
				}
				return nil
			},
			OnDone: func(*Request) { done.Add(1) },
		}
		hi := &Request{
			Work: func(ctx *pcontext.Context) error {
				close(hiRuns)
				for !ctx.Core().Done() {
					runtime.Gosched()
				}
				return nil
			},
			OnDone: func(*Request) { done.Add(1) },
		}
		if !s.SubmitLow(0, low) {
			t.Fatal("low request refused")
		}
		waitChan(t, lowRuns, "low request never started")
		if s.SubmitHighBatch([]*Request{hi}) != 1 {
			t.Fatal("high request refused")
		}
		waitChan(t, hiRuns, "high request never preempted the low one")
		s.Stop()
		if n := done.Load(); n != 2 {
			t.Fatalf("iteration %d: %d of 2 requests completed", i, n)
		}
	}
}

// TestIsolationTorture is the -race torture for the two-context core:
// low-priority requests paused by preemptive high-priority batches ×
// mid-flight Cancel × deadline expiry. Each body stamps its CLS user slot and
// trace tag and re-checks them at every instruction boundary — preemption
// must never bleed either across contexts — and every request's OnDone must
// fire exactly once.
func TestIsolationTorture(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 2, LoQueueSize: 32, HiQueueSize: 4})
	s.Start()

	type tracked struct {
		req  *Request
		done atomic.Int64
	}
	var bad atomic.Int64
	newBody := func(id uint64) func(ctx *pcontext.Context) error {
		return func(ctx *pcontext.Context) error {
			cls := ctx.CLS()
			cls.Set(pcontext.SlotUser, id)
			tag := ctx.TraceTag()
			for i := 0; i < 300; i++ {
				ctx.Poll()
				if v, _ := cls.Get(pcontext.SlotUser).(uint64); v != id {
					bad.Add(1)
					return nil
				}
				if ctx.TraceTag() != tag {
					bad.Add(1)
					return nil
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return nil
		}
	}

	const n = 120
	reqs := make([]*tracked, n)
	var next atomic.Uint64
	for i := range reqs {
		tr := &tracked{}
		tr.req = &Request{
			Work:   newBody(next.Add(1)),
			OnDone: func(*Request) { tr.done.Add(1) },
		}
		if i%3 == 1 { // deadline mid-flight (some expire queued, some running)
			tr.req.Deadline = clock.Nanos() + int64(time.Duration(200+i)*time.Microsecond)
		}
		reqs[i] = tr
	}

	// Feed the low queues from a producer while canceling every third
	// request from outside and hammering both workers with hi batches.
	go func() {
		for i, tr := range reqs {
			for !s.SubmitLow(i%2, tr.req) {
				time.Sleep(20 * time.Microsecond)
			}
			if i%3 == 2 {
				go tr.req.Cancel()
			}
		}
	}()
	hiStop := make(chan struct{})
	hiDone := make(chan struct{})
	go func() {
		defer close(hiDone)
		for {
			select {
			case <-hiStop:
				return
			default:
			}
			s.SubmitHighBatch([]*Request{
				{Work: func(ctx *pcontext.Context) error { return nil }},
				{Work: func(ctx *pcontext.Context) error { return nil }},
			})
			time.Sleep(100 * time.Microsecond)
		}
	}()

	waitFor(t, func() bool {
		for _, tr := range reqs {
			if tr.done.Load() == 0 {
				return false
			}
		}
		return true
	}, 20*time.Second, "torture requests never drained")
	close(hiStop)
	<-hiDone
	s.Stop()

	if bad.Load() != 0 {
		t.Fatalf("%d context-local bleeds across contexts", bad.Load())
	}
	for i, tr := range reqs {
		if c := tr.done.Load(); c != 1 {
			t.Fatalf("request %d OnDone ran %d times", i, c)
		}
	}
}
