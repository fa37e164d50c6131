package pcontext

import (
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/uintr"
)

// startTwoContexts builds a core whose context 0 runs body0 and context 1
// runs body1, and returns it started.
func startTwoContexts(t *testing.T, core *Core, body0, body1 func(*Context)) {
	t.Helper()
	core.Start([]func(*Context){body0, body1})
}

func TestDetachedContext(t *testing.T) {
	ctx := Detached()
	if ctx.Core() != nil || ctx.ID() != -1 {
		t.Fatal("detached context misconfigured")
	}
	ctx.Poll() // must not panic
	ctx.Yield()
	if ctx.CLS().Accesses != 1 {
		t.Fatalf("accesses = %d, want 1 (Yield does not count)", ctx.CLS().Accesses)
	}
	NonPreemptible(ctx, func() {
		if !ctx.TCB().InNonPreemptible() {
			t.Fatal("NPR not entered")
		}
	})
	if ctx.TCB().InNonPreemptible() {
		t.Fatal("NPR not exited")
	}
	if ctx.String() != "ctx(detached)" {
		t.Fatalf("String() = %q", ctx.String())
	}
}

func TestNilContextPollSafe(t *testing.T) {
	var ctx *Context
	ctx.Poll()
	ctx.Yield()
	NonPreemptible(nil, func() {})
}

func TestPassiveSwitchOnInterrupt(t *testing.T) {
	core := NewCore(0, 2)
	var order []string
	done := make(chan struct{})

	core.SetHandler(func(cur *Context, vectors uint64) {
		if !uintr.Has(vectors, uintr.VecPreempt) {
			t.Error("wrong vector")
		}
		order = append(order, "handler")
		cur.SwitchTo(core.Context(1))
		// Execution resumes here after context 1 swaps back.
		order = append(order, "resumed")
	})

	startTwoContexts(t, core,
		func(ctx *Context) {
			order = append(order, "low-start")
			// Simulate a long transaction: poll until preempted, then finish.
			deadline := time.Now().Add(2 * time.Second)
			for ctx.TCB().PassiveSwitches() == 0 && time.Now().Before(deadline) {
				ctx.Poll()
			}
			order = append(order, "low-end")
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				order = append(order, "high")
				ctx.SwapContext(core.Context(0))
			}
		},
	)

	// Give the low-priority loop a moment, then preempt it.
	time.Sleep(10 * time.Millisecond)
	uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("preemption round trip timed out")
	}
	core.Shutdown()

	want := []string{"low-start", "handler", "high", "resumed", "low-end"}
	if len(order) < len(want) {
		t.Fatalf("order too short: %v", order)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, order[i], w, order)
		}
	}
	if core.Context(0).TCB().PassiveSwitches() != 1 {
		t.Fatalf("passive switches = %d", core.Context(0).TCB().PassiveSwitches())
	}
	if core.Context(1).TCB().ActiveSwitches() != 1 {
		t.Fatalf("active switches = %d", core.Context(1).TCB().ActiveSwitches())
	}
}

func TestNonPreemptibleRegionDefersDelivery(t *testing.T) {
	core := NewCore(0, 2)
	var delivered atomic.Bool
	done := make(chan struct{})

	core.SetHandler(func(cur *Context, vectors uint64) {
		delivered.Store(true)
		cur.SwitchTo(core.Context(1))
	})

	startTwoContexts(t, core,
		func(ctx *Context) {
			ctx.TCB().Lock()
			// Interrupt arrives while locked: polls must not deliver.
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			for i := 0; i < 1000; i++ {
				ctx.Poll()
			}
			if delivered.Load() {
				t.Error("delivered inside non-preemptible region")
			}
			if ctx.TCB().SuppressedPolls() == 0 {
				t.Error("suppressed polls not counted")
			}
			ctx.TCB().Unlock()
			// First poll after unlock must deliver the still-pending interrupt.
			deadline := time.Now().Add(2 * time.Second)
			for !delivered.Load() && time.Now().Before(deadline) {
				ctx.Poll()
			}
			if !delivered.Load() {
				t.Error("interrupt lost after NPR exit")
			}
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				ctx.SwapContext(core.Context(0))
			}
		},
	)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	core.Shutdown()
}

func TestNestedNonPreemptible(t *testing.T) {
	ctx := Detached()
	tcb := ctx.TCB()
	tcb.Lock()
	tcb.Lock()
	tcb.Unlock()
	if !tcb.InNonPreemptible() {
		t.Fatal("inner unlock must not exit the region")
	}
	tcb.Unlock()
	if tcb.InNonPreemptible() {
		t.Fatal("outer unlock must exit the region")
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Detached().TCB().Unlock()
}

func TestCLUIMasksPassiveSwitch(t *testing.T) {
	core := NewCore(0, 2)
	var delivered atomic.Bool
	done := make(chan struct{})

	core.SetHandler(func(cur *Context, vectors uint64) {
		delivered.Store(true)
	})

	startTwoContexts(t, core,
		func(ctx *Context) {
			core.Receiver().CLUI()
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			for i := 0; i < 1000; i++ {
				ctx.Poll()
			}
			if delivered.Load() {
				t.Error("delivered while UIF clear")
			}
			core.Receiver().STUI()
			ctx.Poll()
			if !delivered.Load() {
				t.Error("not delivered after STUI")
			}
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				ctx.SwapContext(core.Context(0))
			}
		},
	)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	core.Shutdown()
}

func TestStarvationLevel(t *testing.T) {
	core := NewCore(0, 1)
	slot := core.Context(0)
	if l := core.StarvationLevel(); l != 0 {
		t.Fatalf("idle level = %v", l)
	}
	slot.BeginLowPrio()
	time.Sleep(2 * time.Millisecond)
	// Claim half the elapsed time was high-priority work.
	elapsed := int64(2 * time.Millisecond)
	core.AddHighPrioNanos(elapsed / 2)
	l := core.StarvationLevel()
	if l <= 0 || l > 1.0 {
		t.Fatalf("starvation level = %v, want in (0,1]", l)
	}
	// The level freezes at its final value when the transaction ends...
	slot.EndLowPrio()
	if frozen := core.StarvationLevel(); frozen <= 0 || frozen > 1.0 {
		t.Fatalf("frozen level = %v, want in (0,1]", frozen)
	}
	if core.LowPrioActive() {
		t.Fatal("LowPrioActive after end")
	}
	// ...and resets when the next low-priority transaction begins.
	slot.BeginLowPrio()
	if l := core.StarvationLevel(); l > 0.01 {
		t.Fatalf("level after new begin = %v", l)
	}
	if !core.LowPrioActive() {
		t.Fatal("LowPrioActive not set")
	}
}

func TestStarvationLevelPerSlot(t *testing.T) {
	// Every context with a low-priority transaction in flight starves while
	// high-priority work runs: AddHighPrioNanos feeds each active context,
	// and the core-level StarvationLevel is the max over contexts.
	core := NewCore(0, 4)
	a, b := core.Context(0), core.Context(1)
	a.BeginLowPrio()
	time.Sleep(2 * time.Millisecond)
	b.BeginLowPrio()
	core.AddHighPrioNanos(int64(time.Millisecond))
	la, lb := a.StarvationLevel(), b.StarvationLevel()
	if la <= 0 || lb <= 0 {
		t.Fatalf("active slots not starved: a=%v b=%v", la, lb)
	}
	// b began later, so the same Th divides by a smaller T1-T0: Lb >= La.
	if lb < la {
		t.Fatalf("younger slot less starved: a=%v b=%v", la, lb)
	}
	if got := core.StarvationLevel(); got != lb && got < la {
		t.Fatalf("core level %v not the max of (%v, %v)", got, la, lb)
	}
	// Idle slots contribute their frozen level only.
	if l := core.Context(2).StarvationLevel(); l != 0 {
		t.Fatalf("never-started slot level = %v", l)
	}
	a.EndLowPrio()
	b.EndLowPrio()
	if core.LowPrioActive() {
		t.Fatal("LowPrioActive after all slots ended")
	}
}

func TestCLSIsolationBetweenContexts(t *testing.T) {
	// Two contexts on one core must see independent CLS areas: this is the
	// paper's §4.3 correctness property (e.g. per-context log buffers).
	core := NewCore(0, 2)
	done := make(chan struct{})
	core.SetHandler(func(cur *Context, vectors uint64) {
		cur.SwitchTo(core.Context(1))
	})
	startTwoContexts(t, core,
		func(ctx *Context) {
			ctx.CLS().Set(SlotUser, "low")
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			deadline := time.Now().Add(2 * time.Second)
			for ctx.TCB().PassiveSwitches() == 0 && time.Now().Before(deadline) {
				ctx.Poll()
			}
			if got := ctx.CLS().Get(SlotUser); got != "low" {
				t.Errorf("context 0 CLS corrupted: %v", got)
			}
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				if got := ctx.CLS().Get(SlotUser); got != nil && got != "high" {
					t.Errorf("context 1 sees foreign CLS: %v", got)
				}
				ctx.CLS().Set(SlotUser, "high")
				ctx.SwapContext(core.Context(0))
			}
		},
	)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	core.Shutdown()
}

func TestDeliveryLatencyMeasured(t *testing.T) {
	core := NewCore(0, 2)
	done := make(chan struct{})
	core.SetHandler(func(cur *Context, vectors uint64) {})
	startTwoContexts(t, core,
		func(ctx *Context) {
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			ctx.Poll()
			close(done)
		},
		func(ctx *Context) {},
	)
	<-done
	core.Shutdown()
	n, mean := core.DeliveryStats()
	if n != 1 {
		t.Fatalf("delivery count = %d", n)
	}
	if mean < 0 || mean > float64(time.Second) {
		t.Fatalf("implausible delivery latency %v ns", mean)
	}
}

func TestShutdownUnblocksParkedContexts(t *testing.T) {
	core := NewCore(0, 2)
	startTwoContexts(t, core,
		func(ctx *Context) {
			for !core.Done() {
				ctx.Poll()
			}
		},
		func(ctx *Context) {
			// Parked forever; Shutdown must still reap it.
		},
	)
	finished := make(chan struct{})
	go func() {
		core.Shutdown()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
}

func TestSwitchToSelfIsNoop(t *testing.T) {
	core := NewCore(0, 1)
	done := make(chan struct{})
	core.Start([]func(*Context){func(ctx *Context) {
		ctx.SwitchTo(ctx)
		ctx.SwapContext(ctx)
		close(done)
	}})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("self-switch blocked")
	}
	core.Shutdown()
}

func TestSwitchAcrossCoresPanics(t *testing.T) {
	a, b := NewCore(0, 1), NewCore(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-core switch")
		}
	}()
	a.Context(0).SwitchTo(b.Context(0))
}

func TestPollHookInvoked(t *testing.T) {
	core := NewCore(0, 1)
	var hooked atomic.Int64
	core.SetPollHook(func(cur *Context) { hooked.Add(1) })
	done := make(chan struct{})
	core.Start([]func(*Context){func(ctx *Context) {
		for i := 0; i < 100; i++ {
			ctx.Poll()
		}
		close(done)
	}})
	<-done
	core.Shutdown()
	if hooked.Load() != 100 {
		t.Fatalf("hook ran %d times, want 100", hooked.Load())
	}
}

func TestActiveSwitchKeepsInterruptPending(t *testing.T) {
	// An interrupt posted during SwapContext's masked window must not be
	// lost: the resumed context recognizes it at its next poll.
	core := NewCore(0, 2)
	var delivered atomic.Int64
	done := make(chan struct{})
	core.SetHandler(func(cur *Context, vectors uint64) { delivered.Add(1) })
	startTwoContexts(t, core,
		func(ctx *Context) {
			// Hand the core to context 1 and get it back.
			ctx.SwapContext(core.Context(1))
			deadline := time.Now().Add(2 * time.Second)
			for delivered.Load() == 0 && time.Now().Before(deadline) {
				ctx.Poll()
			}
			if delivered.Load() == 0 {
				t.Error("interrupt posted during swap was lost")
			}
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				// Post while we own the core; context 0 is parked "mid-swap".
				uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
				ctx.SwapContext(core.Context(0))
			}
		},
	)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	core.Shutdown()
}

func TestBeginLowPrioSingleWriterPanicsUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("invariant check compiled in only under -race")
	}
	core := NewCore(0, 2)
	slot := core.Context(0)
	slot.BeginLowPrio()
	defer func() {
		if recover() == nil {
			t.Fatal("double BeginLowPrio did not panic under -race")
		}
	}()
	slot.BeginLowPrio()
}
