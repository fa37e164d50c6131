package pcontext

import (
	"sync"
	"testing"
	"time"

	"preemptdb/internal/uintr"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.record(EvPassiveSwitch, 0, 1, 0)
	if tr.Len() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestTracerRecordsPreemptionCycle(t *testing.T) {
	core := NewCore(0, 2)
	tr := NewTracer(64)
	core.SetTracer(tr)
	if core.Tracer() != tr {
		t.Fatal("tracer not attached")
	}
	core.SetHandler(func(cur *Context, vectors uint64) {
		cur.SwitchTo(core.Context(1))
	})
	done := make(chan struct{})
	core.Start([]func(*Context){
		func(ctx *Context) {
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			deadline := time.Now().Add(2 * time.Second)
			for ctx.TCB().PassiveSwitches() == 0 && time.Now().Before(deadline) {
				ctx.Poll()
			}
			close(done)
		},
		func(ctx *Context) {
			for !core.Done() {
				ctx.SwapContext(core.Context(0))
			}
		},
	})
	<-done
	core.Shutdown()

	events := tr.Snapshot()
	var kinds []EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	// Expect: recognition, passive 0->1, active 1->0 (in order).
	want := []EventKind{EvRecognized, EvPassiveSwitch, EvActiveSwitch}
	if len(kinds) < len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("event[%d] = %v, want %v (all: %v)", i, kinds[i], k, kinds)
		}
	}
	if events[1].From != 0 || events[1].To != 1 {
		t.Fatalf("passive switch edges: %d -> %d", events[1].From, events[1].To)
	}
	// Timestamps must be non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestTracerSuppressedInNPR(t *testing.T) {
	core := NewCore(0, 2)
	tr := NewTracer(64)
	core.SetTracer(tr)
	core.SetHandler(func(cur *Context, vectors uint64) {})
	done := make(chan struct{})
	core.Start([]func(*Context){
		func(ctx *Context) {
			ctx.TCB().Lock()
			uintr.SendUIPI(core.Receiver().UPID(), uintr.VecPreempt)
			for i := 0; i < 10; i++ {
				ctx.Poll()
			}
			ctx.TCB().Unlock()
			ctx.Poll() // recognized here
			close(done)
		},
		nil,
	})
	<-done
	core.Shutdown()
	var suppressed, recognized int
	for _, e := range tr.Snapshot() {
		switch e.Kind {
		case EvSuppressed:
			suppressed++
		case EvRecognized:
			recognized++
		}
	}
	if suppressed == 0 {
		t.Fatal("no suppression events")
	}
	if recognized != 1 {
		t.Fatalf("recognized = %d, want 1", recognized)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4) // power of two
	for i := 0; i < 10; i++ {
		tr.record(EvActiveSwitch, int8(i%2), int8((i+1)%2), uint64(i))
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot = %d events, want 4 (capacity)", len(snap))
	}
}

// TestTracerSnapshotNoTornReads hammers a tiny ring from a writer while
// readers snapshot continuously (run under -race in CI). Every event the
// writer records has fields derivable from its tag; the per-slot seqlock must
// never let a snapshot observe a mix of two writes.
func TestTracerSnapshotNoTornReads(t *testing.T) {
	tr := NewTracer(8) // tiny ring so wraps race with reads constantly
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range tr.Snapshot() {
					if e.Kind != EvActiveSwitch || e.From != int8(e.Tag%100) || e.To != int8((e.Tag+7)%100) {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}()
	}
	for i := uint64(0); i < 200000; i++ {
		tr.record(EvActiveSwitch, int8(i%100), int8((i+7)%100), i)
	}
	close(stop)
	wg.Wait()
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvPassiveSwitch: "preempt", EvActiveSwitch: "swap",
		EvRecognized: "uintr", EvSuppressed: "npr-defer",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if EventKind(77).String() == "" {
		t.Error("unknown kind must format")
	}
}
