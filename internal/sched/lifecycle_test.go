package sched

import (
	"errors"
	"testing"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/pcontext"
)

// blockWorker submits a low-priority request that holds worker 0 until the
// returned release func is called, and waits until it is actually running.
func blockWorker(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	ok := s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		close(started)
		<-gate
		return nil
	}})
	if !ok {
		t.Fatal("blocker not accepted")
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started")
	}
	return func() { close(gate) }
}

func waitDone(t *testing.T, ch <-chan *Request) *Request {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed")
		return nil
	}
}

// TestShedExpiredBeforeExecution: a queued request whose deadline passes
// while it waits must be shed at dispatch — typed error, no execution, and
// the ShedExpired counter ticks.
func TestShedExpiredBeforeExecution(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	defer s.Stop()
	release := blockWorker(t, s)

	done := make(chan *Request, 1)
	ran := false
	req := &Request{
		Deadline: clock.Nanos(), // already due: certain to be expired at dispatch
		Work: func(ctx *pcontext.Context) error {
			ran = true
			return nil
		},
		OnDone: func(r *Request) { done <- r },
	}
	if !s.SubmitLow(0, req) {
		t.Fatal("request not accepted")
	}
	release()
	r := waitDone(t, done)
	if !errors.Is(r.Err, pcontext.ErrDeadlineExceeded) {
		t.Fatalf("Err = %v", r.Err)
	}
	if ran {
		t.Fatal("expired request must not execute")
	}
	if r.StartedAt == 0 || r.FinishedAt != r.StartedAt {
		t.Fatalf("shed request timestamps: start %d finish %d", r.StartedAt, r.FinishedAt)
	}
	if got := s.ShedExpired(); got != 1 {
		t.Fatalf("ShedExpired = %d", got)
	}
	if got := s.ShedCanceled(); got != 0 {
		t.Fatalf("ShedCanceled = %d", got)
	}
}

// TestShedCanceledBeforeExecution: canceling a queued request drops it at
// dispatch with ErrCanceled.
func TestShedCanceledBeforeExecution(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	defer s.Stop()
	release := blockWorker(t, s)

	done := make(chan *Request, 1)
	ran := false
	req := &Request{
		Work:   func(ctx *pcontext.Context) error { ran = true; return nil },
		OnDone: func(r *Request) { done <- r },
	}
	if !s.SubmitLow(0, req) {
		t.Fatal("request not accepted")
	}
	req.Cancel()
	if !req.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	release()
	r := waitDone(t, done)
	if !errors.Is(r.Err, pcontext.ErrCanceled) {
		t.Fatalf("Err = %v", r.Err)
	}
	if ran {
		t.Fatal("canceled request must not execute")
	}
	if got := s.ShedCanceled(); got != 1 {
		t.Fatalf("ShedCanceled = %d", got)
	}
}

// TestCancelRunningRequest: Cancel reaches a request already executing via
// the armed context, and the transaction observes it at its next poll.
func TestCancelRunningRequest(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	defer s.Stop()

	started := make(chan struct{})
	done := make(chan *Request, 1)
	req := &Request{
		Work: func(ctx *pcontext.Context) error {
			close(started)
			for {
				ctx.Poll()
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		},
		OnDone: func(r *Request) { done <- r },
	}
	if !s.SubmitLow(0, req) {
		t.Fatal("request not accepted")
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never started")
	}
	req.Cancel()
	r := waitDone(t, done)
	if !errors.Is(r.Err, pcontext.ErrCanceled) {
		t.Fatalf("Err = %v", r.Err)
	}
	// A mid-flight cancel is not a dispatch shed.
	if got := s.ShedCanceled(); got != 0 {
		t.Fatalf("ShedCanceled = %d", got)
	}
}

// TestDeadlineCancelsRunningRequest: an armed deadline trips mid-execution
// at the next poll.
func TestDeadlineCancelsRunningRequest(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	defer s.Stop()

	done := make(chan *Request, 1)
	req := &Request{
		Deadline: clock.Nanos() + int64(2*time.Millisecond),
		Work: func(ctx *pcontext.Context) error {
			for {
				ctx.Poll()
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		},
		OnDone: func(r *Request) { done <- r },
	}
	if !s.SubmitLow(0, req) {
		t.Fatal("request not accepted")
	}
	r := waitDone(t, done)
	if !errors.Is(r.Err, pcontext.ErrDeadlineExceeded) {
		t.Fatalf("Err = %v", r.Err)
	}
	if r.FinishedAt == r.StartedAt {
		t.Fatal("request was shed, expected it to execute and trip mid-flight")
	}
}

// TestStaleCancelDoesNotPoisonNextRequest: canceling a request after it
// finished must not leak into the next request executed on the same context
// — the generation fence in action.
func TestStaleCancelDoesNotPoisonNextRequest(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	defer s.Stop()

	first := &Request{Work: func(ctx *pcontext.Context) error { return nil }}
	done1 := make(chan *Request, 1)
	first.OnDone = func(r *Request) { done1 <- r }
	if !s.SubmitLow(0, first) {
		t.Fatal("first not accepted")
	}
	waitDone(t, done1)

	// The context has moved on; this cancel must be fenced off.
	first.Cancel()

	done2 := make(chan *Request, 1)
	second := &Request{
		Work: func(ctx *pcontext.Context) error {
			for i := 0; i < 1000; i++ {
				ctx.Poll()
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return nil
		},
		OnDone: func(r *Request) { done2 <- r },
	}
	if !s.SubmitLow(0, second) {
		t.Fatal("second not accepted")
	}
	if r := waitDone(t, done2); r.Err != nil {
		t.Fatalf("stale cancel poisoned the next request: %v", r.Err)
	}
}

// TestStopCompletesQueuedRequests: Stop lets the running request finish, then
// completes every request still queued, at either priority, with ErrStopped
// exactly once; a submission after Stop is refused.
func TestStopCompletesQueuedRequests(t *testing.T) {
	s := New(Config{Workers: 1, LoQueueSize: 4})
	s.Start()
	release := blockWorker(t, s)

	done := make(chan *Request, 4)
	work := func(ctx *pcontext.Context) error {
		t.Error("a request queued at Stop ran")
		return nil
	}
	lo := &Request{Work: work, OnDone: func(r *Request) { done <- r }}
	hi := &Request{Work: work, OnDone: func(r *Request) { done <- r }}
	if !s.SubmitLow(0, lo) || s.SubmitHighBatch([]*Request{hi}) != 1 {
		t.Fatal("requests not accepted")
	}
	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	// Release the blocker only once the core is shutting down, so the worker
	// exits instead of taking a queued request.
	for !s.Workers()[0].Core().Done() {
		time.Sleep(100 * time.Microsecond)
	}
	release()
	for range 2 {
		if r := waitDone(t, done); r.Err != ErrStopped {
			t.Fatalf("queued request completed with %v, want ErrStopped", r.Err)
		}
	}
	<-stopped
	if len(done) != 0 {
		t.Fatal("a queued request completed twice")
	}
	if s.SubmitLow(0, &Request{Work: work}) || s.SubmitHighBatch([]*Request{{Work: work}}) != 0 {
		t.Fatal("a submission after Stop was accepted")
	}
}
