package pcontext

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/uintr"
)

// schedSamples returns how many goroutine schedules the runtime has sampled
// into /sched/latencies:seconds (it samples one schedule in eight).
func schedSamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestRoundTripsBypassGoScheduler is the guard on the switch mechanism: a
// SwapContext round trip and a full preemption round trip (SendUIPI → Poll →
// handler SwitchTo → SwapContext back) hand the thread between the two
// contexts directly, so 10,000 of either add (almost) no schedule to the
// runtime's latency sample. A switch through a channel hand-off enters the
// Go scheduler twice per round trip: 20,000 schedules, about 2,500 samples.
// Neither round trip allocates.
func TestRoundTripsBypassGoScheduler(t *testing.T) {
	const rounds, maxSamples = 10000, 100
	core := NewCore(0, 2)
	core.SetHandler(func(cur *Context, vectors uint64) {
		cur.SwitchTo(core.Context(1))
	})
	type result struct {
		name    string
		samples uint64
		allocs  float64
	}
	results := make(chan []result, 1)
	core.Start([]func(*Context){
		func(ctx *Context) {
			other, upid := core.Context(1), core.Receiver().UPID()
			loops := []struct {
				name string
				trip func()
			}{
				{"SwapContext", func() { ctx.SwapContext(other) }},
				{"preemption", func() {
					uintr.SendUIPI(upid, uintr.VecPreempt)
					before := ctx.TCB().PassiveSwitches()
					for ctx.TCB().PassiveSwitches() == before {
						ctx.Poll()
					}
				}},
			}
			var out []result
			for _, l := range loops {
				before := schedSamples()
				for i := 0; i < rounds; i++ {
					l.trip()
				}
				samples := schedSamples() - before
				out = append(out, result{l.name, samples, testing.AllocsPerRun(1000, l.trip)})
			}
			results <- out
		},
		func(ctx *Context) {
			for !core.Done() {
				ctx.SwapContext(core.Context(0))
			}
		},
	})
	out := <-results
	core.Shutdown()
	for _, r := range out {
		t.Logf("%d %s round trips: %d scheduler latency samples, %.1f allocs per round trip", rounds, r.name, r.samples, r.allocs)
		if r.samples >= maxSamples {
			t.Errorf("%s: %d round trips added %d scheduler latency samples, want < %d: the switch goes through the Go scheduler", r.name, rounds, r.samples, maxSamples)
		}
		if r.allocs != 0 {
			t.Errorf("%s round trip allocates %.1f times, want 0", r.name, r.allocs)
		}
	}
}

// switchEvents counts the switch events in a trace.
func switchEvents(tr *Tracer) (n int) {
	for _, e := range tr.Snapshot() {
		if e.Kind == EvPassiveSwitch || e.Kind == EvActiveSwitch {
			n++
		}
	}
	return n
}

// TestSwitchToExitedContextReturnsAtOnce: once a context's body has
// returned, switching to it from the other context returns at once and
// neither counts a switch nor records a trace event. That holds in both
// directions: context 1 switching to a finished context 0, and context 0
// switching to a finished context 1.
func TestSwitchToExitedContextReturnsAtOnce(t *testing.T) {
	t.Run("to context 0", func(t *testing.T) {
		core := NewCore(0, 2)
		tr := NewTracer(64)
		core.SetTracer(tr)
		checked := make(chan struct{})
		core.Start([]func(*Context){
			func(ctx *Context) { ctx.SwapContext(core.Context(1)) },
			func(ctx *Context) {
				regular := core.Context(0)
				ctx.SwapContext(regular) // context 0 runs to its end
				for i := 0; i < 100; i++ {
					ctx.SwapContext(regular)
					ctx.SwitchTo(regular)
				}
				close(checked)
			},
		})
		<-checked
		core.Shutdown()
		if a, p := core.Context(1).TCB().ActiveSwitches(), core.Context(1).TCB().PassiveSwitches(); a != 1 || p != 0 {
			t.Fatalf("context 1 counted %d active and %d passive switches, want 1 and 0", a, p)
		}
		if n := switchEvents(tr); n != 2 {
			t.Fatalf("%d switch events, want 2 (0→1 and 1→0)", n)
		}
	})
	t.Run("to context 1", func(t *testing.T) {
		core := NewCore(0, 2)
		tr := NewTracer(64)
		core.SetTracer(tr)
		ran1, checked := false, make(chan struct{})
		core.Start([]func(*Context){
			func(ctx *Context) {
				preemptive := core.Context(1)
				ctx.SwapContext(preemptive) // context 1's body returns at once
				for i := 0; i < 100; i++ {
					ctx.SwapContext(preemptive)
					ctx.SwitchTo(preemptive)
				}
				close(checked)
			},
			func(ctx *Context) { ran1 = true },
		})
		<-checked
		core.Shutdown()
		if !ran1 {
			t.Fatal("context 1's body did not run")
		}
		if a, p := core.Context(0).TCB().ActiveSwitches(), core.Context(0).TCB().PassiveSwitches(); a != 1 || p != 0 {
			t.Fatalf("context 0 counted %d active and %d passive switches, want 1 and 0", a, p)
		}
		if n := switchEvents(tr); n != 1 {
			t.Fatalf("%d switch events, want 1 (0→1)", n)
		}
	})
}

// TestSwitchAfterShutdownReturnsAtOnce: once Shutdown began, a switch
// returns at once without counting or tracing, so the bodies wind down on
// the context that holds the core.
func TestSwitchAfterShutdownReturnsAtOnce(t *testing.T) {
	core := NewCore(0, 2)
	tr := NewTracer(64)
	core.SetTracer(tr)
	var ran1 atomic.Bool
	core.Start([]func(*Context){
		func(ctx *Context) {
			for !core.Done() {
				ctx.Poll()
			}
			ctx.SwapContext(core.Context(1))
			ctx.SwitchTo(core.Context(1))
		},
		func(ctx *Context) { ran1.Store(true) },
	})
	core.Shutdown()
	if ran1.Load() {
		t.Fatal("context 1's body ran although no switch reached it")
	}
	tcb := core.Context(0).TCB()
	if tcb.ActiveSwitches() != 0 || tcb.PassiveSwitches() != 0 || switchEvents(tr) != 0 {
		t.Fatalf("switch after Shutdown counted %d active, %d passive, traced %d",
			tcb.ActiveSwitches(), tcb.PassiveSwitches(), switchEvents(tr))
	}
}

// TestShutdownResumesSuspendedContext: Shutdown while context 0 is
// suspended mid-transaction lets context 1's body return, then resumes
// context 0 — its switch returns — and waits for it to finish.
func TestShutdownResumesSuspendedContext(t *testing.T) {
	core := NewCore(0, 2)
	holding := make(chan struct{})
	var order []string // appended by whichever context holds the core
	core.Start([]func(*Context){
		func(ctx *Context) {
			order = append(order, "low-start")
			ctx.SwapContext(core.Context(1))
			if !core.Done() {
				t.Error("context 0 resumed before Shutdown")
			}
			order = append(order, "low-resumed")
		},
		func(ctx *Context) {
			order = append(order, "high")
			close(holding)
			for !core.Done() {
				runtime.Gosched()
			}
			order = append(order, "high-end")
		},
	})
	<-holding
	core.Shutdown()
	want := []string{"low-start", "high", "high-end", "low-resumed"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestStartContextCount: a one-context core runs its body; Start panics on
// a core of more than two contexts, which exist only for their Context
// objects.
func TestStartContextCount(t *testing.T) {
	one := NewCore(0, 1)
	ran := make(chan struct{})
	one.Start([]func(*Context){func(ctx *Context) { close(ran) }})
	<-ran
	one.Shutdown()

	defer func() {
		if recover() == nil {
			t.Fatal("Start on a three-context core did not panic")
		}
	}()
	NewCore(0, 3).Start(make([]func(*Context), 3))
}

// TestBlockedContextZeroHoldsCore: while context 0 blocks outside a switch
// (an idle park, a WAL wait), context 1 does not run: the driver is
// suspended in the coroutine switch until context 0 switches to it again.
func TestBlockedContextZeroHoldsCore(t *testing.T) {
	core := NewCore(0, 2)
	var turns atomic.Int64
	blocked, gate := make(chan struct{}), make(chan struct{})
	core.Start([]func(*Context){
		func(ctx *Context) {
			ctx.SwapContext(core.Context(1))
			close(blocked)
			<-gate
			ctx.SwapContext(core.Context(1))
		},
		func(ctx *Context) {
			for i := 0; i < 2; i++ {
				turns.Add(1)
				ctx.SwapContext(core.Context(0))
			}
		},
	})
	<-blocked
	before := turns.Load()
	time.Sleep(10 * time.Millisecond)
	if got := turns.Load(); got != before {
		t.Fatalf("context 1 ran %d times while context 0 was blocked", got-before)
	}
	close(gate)
	core.Shutdown()
	if got := turns.Load(); got != 2 {
		t.Fatalf("context 1 took %d turns, want 2", got)
	}
}
