package sched

import (
	"sync/atomic"
	"testing"

	"preemptdb/internal/pcontext"
)

// TestRepeatedPreemption: a low-priority request polls until ten
// high-priority requests, submitted one after another, have all run. Each of
// them starts while the low one is in flight, so each must run on the
// preemptive context. A regression that loses interrupts after the first
// switch leaves a high request queued behind a low one that never finishes,
// and the watchdog reports it.
func TestRepeatedPreemption(t *testing.T) {
	s := New(Config{Policy: PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()

	const rounds = 10
	var hiRan atomic.Int64
	var running, giveUp atomic.Bool
	defer giveUp.Store(true) // a failed round must not leave the low request polling under Stop
	loStarted, loDone := make(chan struct{}), make(chan struct{})
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		running.Store(true)
		close(loStarted)
		for hiRan.Load() < rounds && !giveUp.Load() {
			ctx.Poll()
		}
		running.Store(false)
		close(loDone)
		return nil
	}})
	waitChan(t, loStarted, "low request never started")
	for i := 0; i < rounds; i++ {
		hiDone := make(chan struct{})
		var ranOn int
		var duringLow bool
		req := &Request{Work: func(ctx *pcontext.Context) error {
			ranOn, duringLow = ctx.ID(), running.Load()
			hiRan.Add(1)
			return nil
		}, OnDone: func(*Request) { close(hiDone) }}
		if s.SubmitHighBatch([]*Request{req}) != 1 {
			t.Fatalf("round %d: not accepted", i)
		}
		waitChan(t, hiDone, "high-priority request stuck behind the low one")
		if !duringLow || ranOn != 1 {
			w := s.Workers()[0]
			t.Fatalf("round %d: ran on context %d, low in flight = %v; want the preemptive context while the low request runs (passive=%d uif=%v pending=%v)",
				i, ranOn, duringLow,
				w.Core().Context(0).TCB().PassiveSwitches(),
				w.Core().Receiver().UIF(),
				w.Core().Receiver().UPID().Pending())
		}
	}
	waitChan(t, loDone, "low request never finished")
	if s.Workers()[0].Core().Context(0).TCB().PassiveSwitches() == 0 {
		t.Fatal("low request was never preempted")
	}
}
