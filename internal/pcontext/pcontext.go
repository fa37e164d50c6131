// Package pcontext implements PreemptDB's userspace transaction contexts:
// the mechanism that lets one worker (a simulated hardware thread, Core)
// time-share its transaction contexts — the paper's regular context plus one
// preemptive context (§4.1) — and switch between them either passively, when
// a user interrupt is recognized, or actively, via SwapContext after a
// high-priority batch completes (paper §4.2).
//
// Mapping from the paper's x86 machinery to this package:
//
//   - A worker thread pinned to a CPU core        → Core
//   - A transaction context with its own stack    → Context: the preemptive
//     context is the core's driver goroutine, the
//     regular context a coroutine it resumes
//   - The transaction control block (TCB) holding
//     saved registers                             → TCB; the "registers" are
//     the goroutine stacks, exchanged by the
//     runtime's coroutine switch (iter.Pull)
//   - uintr frame push + uiret                    → Core.poll → handler →
//     SwitchTo
//   - clui/stui and the swap_context RIP check    → Receiver UIF masking in
//     SwapContext
//   - fs/gs-swapped context-local storage (CLS)   → CLS struct reached only
//     through the running Context
//   - CLS lock counter for non-preemptible
//     regions                                     → TCB.Lock/Unlock nesting
//
// Exactly one context per core runs at a time, the invariant a single
// hardware thread provides: a switch is a yield from the regular context or
// a resume from the preemptive one, and either hands the thread straight to
// the other goroutine without passing through the Go scheduler.
package pcontext

import (
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"

	"preemptdb/internal/clock"
	"preemptdb/internal/uintr"
)

// Handler is the user-interrupt handler a scheduler installs on a core. It
// runs on the interrupted context's goroutine with interrupts disabled
// (UIF clear), like a hardware handler. It typically inspects queues and
// calls cur.SwitchTo(other); returning without switching "drops" the
// interrupt, the behaviour the paper prescribes for non-preemptible regions.
type Handler func(cur *Context, vectors uint64)

// PollHook is invoked on every Poll when installed; scheduling policies use
// it for cooperative yield checks. It runs before interrupt recognition.
type PollHook func(cur *Context)

// Core models one hardware thread time-sharing multiple transaction contexts.
type Core struct {
	id   int
	recv *uintr.Receiver

	contexts []*Context
	// yield suspends context 0 and resumes context 1, resume the reverse;
	// each is set and called by one context only (see Start).
	yield  func(struct{}) bool
	resume func() (struct{}, bool)

	handler  Handler
	pollHook PollHook
	// hooked is set when a handler or poll hook is installed, so Poll's fast
	// path skips everything else with one load.
	hooked atomic.Bool

	done atomic.Bool
	wg   sync.WaitGroup

	// deliveryCount/deliverySum accumulate post-to-handler-entry latency for
	// the §6.1 microbenchmark, written only by the core's running context.
	deliveryCount atomic.Uint64
	deliverySum   atomic.Int64
	// deliveryObs, when set, additionally receives each delivery-latency
	// sample (set once before Start; the metrics registry hangs off it).
	deliveryObs func(nanos int64)

	// userData lets the embedding scheduler attach its per-worker state
	// (set once before Start; read-only afterwards).
	userData any

	// tracer, when attached, records scheduling events (see trace.go).
	tracer *Tracer
}

// SetUserData attaches scheduler-owned state to the core. Call before Start.
func (c *Core) SetUserData(v any) { c.userData = v }

// UserData returns the state attached with SetUserData.
func (c *Core) UserData() any { return c.userData }

// SetDeliveryObserver registers a callback invoked with every sampled
// post-to-recognition latency (nanoseconds). Call before Start; the callback
// runs on the core's running context and must not block.
func (c *Core) SetDeliveryObserver(fn func(nanos int64)) { c.deliveryObs = fn }

// NewCore creates a core with n transaction contexts. PreemptDB's scheduler
// uses two — the paper's regular context and its preemptive context. Start
// runs cores of one or two contexts; a larger core only lends its Context
// objects (per-context pooling and starvation accounting).
func NewCore(id, n int) *Core {
	if n < 1 {
		panic("pcontext: core needs at least one context")
	}
	c := &Core{id: id, recv: uintr.NewReceiver()}
	for i := 0; i < n; i++ {
		c.contexts = append(c.contexts, newContext(i, c))
	}
	return c
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.id }

// Receiver exposes the core's interrupt state so schedulers can SendUIPI to
// Receiver().UPID() and toggle UIF.
func (c *Core) Receiver() *uintr.Receiver { return c.recv }

// Context returns context i. PreemptDB's scheduler runs low-priority work on
// context 0 (the paper's regular context) and keeps the last one preemptive.
func (c *Core) Context(i int) *Context { return c.contexts[i] }

// NumContexts returns the number of contexts on this core.
func (c *Core) NumContexts() int { return len(c.contexts) }

// SetHandler installs the user-interrupt handler. Install before Start.
func (c *Core) SetHandler(h Handler) {
	c.handler = h
	c.hooked.Store(h != nil || c.pollHook != nil)
}

// SetPollHook installs a hook run on every Poll (cooperative policies).
func (c *Core) SetPollHook(h PollHook) {
	c.pollHook = h
	c.hooked.Store(h != nil || c.handler != nil)
}

// Start runs the core; entries[i] is context i's body, and bodies typically
// loop until Done. A one-context core runs its body on one goroutine. On a
// two-context core context 1, the preemptive context, is the driver
// goroutine and context 0, the regular one, a coroutine it resumes
// (iter.Pull): context 0 runs first, and context 1's body first runs when
// context 0 first switches to it. If context 0 blocks (an idle park, a WAL
// wait), its driver stays blocked with it; that is correct, because only
// one context of a core ever runs. Start panics on more than two contexts.
func (c *Core) Start(entries []func(*Context)) {
	if len(entries) != len(c.contexts) || len(entries) > 2 {
		panic("pcontext: Start takes one body per context, on a core of one or two")
	}
	regular := c.contexts[0]
	drive := func() { regular.run(entries[0]) }
	if len(entries) == 2 {
		// Built on the caller, so a GC assist its allocations draw is paid
		// before Start returns, not by the first request.
		resume, stop := iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			regular.run(entries[0])
		})
		c.resume = resume
		// Context 0 runs until it first switches away or returns, then context
		// 1's body; stop resumes a suspended context 0 and waits for its end.
		drive = func() {
			if resume(); !regular.exited {
				c.contexts[1].run(entries[1])
			}
			stop()
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		drive()
	}()
}

// run runs body on x unless Shutdown began first, then marks x exited.
func (x *Context) run(body func(*Context)) {
	if body != nil && !x.core.done.Load() {
		body(x)
	}
	x.exited = true
}

// Done reports whether Shutdown has been requested.
func (c *Core) Done() bool { return c.done.Load() }

// Shutdown requests termination and waits for every body, which must return
// promptly once Done is true. From then on a switch returns at once; a
// suspended context 0 resumes once context 1's body has returned.
func (c *Core) Shutdown() {
	c.done.Store(true)
	c.wg.Wait()
}

// AddHighPrioNanos accumulates time spent executing high-priority
// transactions into every low-priority transaction currently paused or
// running on this core: while the preemptive context runs for d nanoseconds,
// every occupied low-priority slot on the core is being starved for those
// same d nanoseconds.
func (c *Core) AddHighPrioNanos(d int64) {
	for _, ctx := range c.contexts {
		if ctx.t0.Load() != 0 {
			ctx.th.Add(d)
		}
	}
}

// LowPrioActive reports whether any low-priority transaction is currently
// running or paused on this core.
func (c *Core) LowPrioActive() bool {
	for _, ctx := range c.contexts {
		if ctx.t0.Load() != 0 {
			return true
		}
	}
	return false
}

// StarvationLevel returns the core's effective starvation level for
// admission decisions: the maximum L = Th / (T1 - T0) across the core's
// context slots (see Context.StarvationLevel). On the scheduler's
// two-context core only the regular context runs low-priority work, so this
// is exactly the per-transaction level the paper's §5 decisions use.
func (c *Core) StarvationLevel() float64 {
	var max float64
	for _, ctx := range c.contexts {
		if l := ctx.StarvationLevel(); l > max {
			max = l
		}
	}
	return max
}

// BeginLowPrio records the start of a low-priority transaction on this
// context's slot, resetting the high-priority accumulator (paper §5: "when
// each low-priority transaction starts execution, we record T0 and reset
// Th").
//
// Single-writer invariant: each slot tracks exactly one low-priority
// transaction at a time, begun and ended by the context's own goroutine
// (Core.AddHighPrioNanos is the only cross-context writer, and only ever
// touches Th of occupied slots, which is atomic). A second BeginLowPrio
// without an intervening EndLowPrio means two transactions' accounting would
// share one slot; race builds panic on it.
func (x *Context) BeginLowPrio() {
	if raceEnabled && x.t0.Load() != 0 {
		panic("pcontext: BeginLowPrio on a slot whose low-priority transaction never ended (single-writer invariant)")
	}
	x.th.Store(0)
	x.t0.Store(clock.Nanos())
}

// EndLowPrio marks the end of the slot's low-priority transaction, freezing
// the starvation level at its final value until the next BeginLowPrio.
func (x *Context) EndLowPrio() {
	x.frozenL.Store(math.Float64bits(x.liveStarvation()))
	x.t0.Store(0)
}

// LowPrioActive reports whether a low-priority transaction is currently
// running or paused on this context's slot.
func (x *Context) LowPrioActive() bool { return x.t0.Load() != 0 }

// StarvationLevel returns L = Th / (T1 - T0) for this slot: the fraction of
// the paused low-priority transaction's wall-clock lifetime consumed by
// high-priority work. Between low-priority transactions it returns the
// frozen final level of the slot's previous one (0 before any ran).
func (x *Context) StarvationLevel() float64 {
	if x.t0.Load() == 0 {
		return math.Float64frombits(x.frozenL.Load())
	}
	return x.liveStarvation()
}

func (x *Context) liveStarvation() float64 {
	t0 := x.t0.Load()
	if t0 == 0 {
		return 0
	}
	elapsed := clock.Nanos() - t0
	if elapsed <= 0 {
		return 0
	}
	return float64(x.th.Load()) / float64(elapsed)
}

// DeliveryStats returns the number of recognized interrupts whose latency was
// sampled and their mean post-to-handler latency in nanoseconds.
func (c *Core) DeliveryStats() (count uint64, meanNanos float64) {
	n := c.deliveryCount.Load()
	if n == 0 {
		return 0, 0
	}
	return n, float64(c.deliverySum.Load()) / float64(n)
}

// poll is the slow path of Context.Poll: run the cooperative hook, then
// recognize pending interrupts and invoke the handler.
func (c *Core) poll(cur *Context) {
	if h := c.pollHook; h != nil {
		h(cur)
	}
	if c.handler == nil {
		return
	}
	bitmap, ok := c.recv.Recognize()
	if !ok {
		return
	}
	// Latency sample: time from senduipi to handler entry.
	if post := c.recv.UPID().LastPostNanos(); post != 0 {
		lat := clock.Nanos() - post
		c.deliverySum.Add(lat)
		c.deliveryCount.Add(1)
		if c.deliveryObs != nil {
			c.deliveryObs(lat)
		}
	}
	c.tracer.record(EvRecognized, int8(cur.id), -1, cur.traceTag)
	c.handler(cur, bitmap)
	c.recv.UIRET()
}

// Context is one transaction context: a goroutine plus its TCB and CLS.
type Context struct {
	id   int
	core *Core
	// exited is set once the body has returned; only the core's other
	// context reads it, and only while this one is suspended or gone.
	exited bool
	tcb    TCB
	cls    CLS
	// lc is the request lifecycle descriptor (deadline + cancel reason),
	// checked by Poll at instruction granularity; see lifecycle.go.
	lc lifecycle
	// traceTag annotates trace events emitted while this context runs
	// (the scheduler stamps a request sequence number here). Written only
	// by the context's own goroutine.
	traceTag uint64

	// Per-slot starvation accounting (paper §5, kept per context):
	// t0 is the start timestamp of the low-priority transaction occupying
	// this context (0 when none), th the nanoseconds of high-priority work
	// that ran on the core since t0, frozenL the level frozen at EndLowPrio
	// (float64 bits). th is atomic because submitters read it while the
	// preemptive context adds to it; t0/frozenL are written only under the
	// single-writer invariant documented on BeginLowPrio.
	t0      atomic.Int64
	th      atomic.Int64
	frozenL atomic.Uint64
}

func newContext(id int, core *Core) *Context {
	return &Context{id: id, core: core, cls: newCLS()}
}

// Detached returns a context not bound to any core. Poll is a no-op on it;
// CLS and non-preemptible nesting still work. Use it to run engine code
// outside the scheduler (tests, loaders, single-shot tools).
func Detached() *Context {
	return &Context{id: -1, cls: newCLS()}
}

// ID returns the context's index on its core (-1 for detached contexts).
func (x *Context) ID() int { return x.id }

// Core returns the owning core, or nil for detached contexts.
func (x *Context) Core() *Core { return x.core }

// TCB returns the context's transaction control block.
func (x *Context) TCB() *TCB { return &x.tcb }

// CLS returns the context-local storage area.
func (x *Context) CLS() *CLS { return &x.cls }

// SetTraceTag sets the transaction annotation stamped on subsequent trace
// events from this context (0 clears it). Call only from the context's own
// goroutine.
func (x *Context) SetTraceTag(tag uint64) {
	if x == nil {
		return
	}
	x.traceTag = tag
}

// TraceTag returns the current trace annotation.
func (x *Context) TraceTag() uint64 {
	if x == nil {
		return 0
	}
	return x.traceTag
}

// String implements fmt.Stringer for diagnostics.
func (x *Context) String() string {
	if x.core == nil {
		return "ctx(detached)"
	}
	return fmt.Sprintf("ctx(core=%d,id=%d)", x.core.id, x.id)
}

// Poll is the simulated instruction boundary. Engine code calls it at every
// record/version/node access; when nothing is pending it costs a few loads.
// A nil receiver is allowed so un-instrumented callers can pass nil contexts.
func (x *Context) Poll() {
	if x == nil {
		return
	}
	x.cls.Accesses++
	x.pollLifecycle()
	core := x.core
	if core == nil || !core.hooked.Load() {
		return
	}
	if x.tcb.npr > 0 {
		// Non-preemptible region: the interrupt stays pending in the UPID
		// and will be recognized at the first poll after the outermost
		// Unlock. Cooperative hooks are also suppressed here.
		x.tcb.suppressedPolls++
		if core.recv.UIF() && core.recv.UPID().Pending() {
			core.tracer.record(EvSuppressed, int8(x.id), -1, x.traceTag)
		}
		return
	}
	core.poll(x)
}

// SwitchTo performs a passive context switch from x (the interrupted
// context) to target, normally inside a user-interrupt handler on x. When
// another context later switches back, SwitchTo returns and x resumes
// exactly where it was interrupted — the uiret analogue.
//
// The target context resumes with interrupts enabled: on hardware, entering
// the switched-to context restores that context's saved RFLAGS whose UIF is
// set. A two-level scheduler that must not re-interrupt its preemptive
// context simply drops same-context interrupts in its handler.
func (x *Context) SwitchTo(target *Context) { x.switchTo(target, false) }

// SwapContext is the voluntary (active) switch used when a context concludes
// its work and hands the core back — e.g. the preemptive context resuming the
// paused low-priority transaction (paper §4.2, Algorithm 2). The user
// interrupt flag is cleared for the duration of the bookkeeping so the switch
// is atomic with respect to arriving interrupts, then restored so the target
// context resumes with interrupts enabled; an interrupt posted inside the
// window stays pending and is recognized at the target's next poll — the
// behaviour the paper obtains with its instruction-pointer range check.
func (x *Context) SwapContext(target *Context) { x.switchTo(target, true) }

// switchTo hands the core from x to target and returns once x holds it
// again: context 0 yields to the driver, the driver resumes context 0. It
// must be called on x's own goroutine. A switch to x itself, to a context
// whose body has returned, or after Shutdown began returns at once, counting
// no switch and recording no trace event.
func (x *Context) switchTo(target *Context, active bool) {
	c := x.core
	if c == nil || target.core != c {
		panic("pcontext: switch across cores or on a detached context")
	}
	if target == x || target.exited || c.done.Load() {
		return
	}
	kind, n := EvPassiveSwitch, &x.tcb.passiveSwitches
	if active {
		c.recv.CLUI() // .swap_context_start
		kind, n = EvActiveSwitch, &x.tcb.activeSwitches
	}
	n.Store(n.Load() + 1)
	c.tracer.record(kind, int8(x.id), int8(target.id), x.traceTag)
	c.recv.STUI() // re-enable before the indirect jump, as in Algorithm 2
	if x.id == 0 {
		c.yield(struct{}{})
	} else {
		c.resume()
	}
}

// Yield re-checks for pending work by delivering any recognized interrupt on
// the spot; cooperative policies call it at yield points. It is equivalent to
// Poll but ignores the cooperative hook, forcing only interrupt recognition.
func (x *Context) Yield() {
	if x == nil || x.core == nil {
		return
	}
	if x.tcb.npr > 0 {
		return
	}
	x.core.poll(x)
}

// TCB is the transaction control block: per-context scheduling state. In the
// paper it stores saved registers; here the goroutine holds those, and the
// TCB keeps the non-preemptible nesting counter and switch statistics.
type TCB struct {
	// npr is the non-preemptible region nesting depth. Only the owning
	// context touches it, so no synchronization is needed — the same
	// argument the paper makes for its CLS lock counter.
	npr int32

	// The switch counters are written only by the switching context — so
	// Store(Load()+1) is enough, no atomic read-modify-write on the switch
	// path — and read from other goroutines by stats collectors.
	passiveSwitches atomic.Uint64
	activeSwitches  atomic.Uint64
	suppressedPolls uint64
}

// Lock enters a non-preemptible region (paper §4.4). Regions nest; interrupt
// recognition is suppressed until the outermost Unlock.
func (t *TCB) Lock() { t.npr++ }

// Unlock exits a non-preemptible region.
func (t *TCB) Unlock() {
	if t.npr == 0 {
		panic("pcontext: TCB.Unlock without matching Lock")
	}
	t.npr--
}

// InNonPreemptible reports whether the context is inside any NPR.
func (t *TCB) InNonPreemptible() bool { return t.npr > 0 }

// PassiveSwitches returns the number of interrupt-triggered switches.
func (t *TCB) PassiveSwitches() uint64 { return t.passiveSwitches.Load() }

// ActiveSwitches returns the number of voluntary SwapContext switches.
func (t *TCB) ActiveSwitches() uint64 { return t.activeSwitches.Load() }

// SuppressedPolls returns how many polls fell inside non-preemptible regions.
func (t *TCB) SuppressedPolls() uint64 { return t.suppressedPolls }

// NonPreemptible runs fn inside a non-preemptible region on ctx. It is the
// convenience wrapper used around OCC validation, index SMOs, allocator and
// WAL flush paths. Safe on nil and detached contexts (fn just runs).
func NonPreemptible(ctx *Context, fn func()) {
	if ctx == nil {
		fn()
		return
	}
	ctx.tcb.Lock()
	defer ctx.tcb.Unlock()
	fn()
}
