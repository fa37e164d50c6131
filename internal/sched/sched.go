// Package sched implements PreemptDB's transaction scheduling layer
// (paper §4.1, §5): a scheduling thread dispatches priority-tagged
// transaction requests into per-worker high- and low-priority queues, and
// each worker — a simulated core hosting K transaction contexts (K-1
// low-priority slots plus one preemptive context; default K=2, the paper's
// layout) — executes them under one of the competing policies the paper
// evaluates:
//
//   - Wait: non-preemptive. A worker runs a transaction to completion, then
//     exhausts the high-priority queue before taking the next low-priority
//     transaction.
//   - Cooperative: Wait plus engine-level yield points — after every
//     YieldInterval record accesses the worker checks the high-priority
//     queue and voluntarily swaps to the preemptive context.
//   - CooperativeHandcrafted: Wait plus workload-placed yield points
//     (the workload calls Yield at hand-chosen locations).
//   - Preempt: PreemptDB. The scheduler sends a user interrupt after
//     enqueueing a high-priority batch; the worker's interrupt handler
//     switches to the preemptive context at the next instruction boundary.
//
// Batched on-demand preemption and starvation prevention follow §5: a batch
// is pushed round-robin with one interrupt per touched worker, the scheduler
// skips workers whose starvation level exceeds the threshold, and the
// preemptive context returns the core early when the threshold is crossed
// mid-batch.
//
// With ContextsPerCore > 2 each worker additionally becomes a CoroBase-style
// stall-hiding batch executor: its K-1 low-priority slots each pull requests
// from the queues, and at simulated stall boundaries (YieldStall — B+tree
// node descents, version-chain hops) the running slot rotates the core to
// the next runnable sibling instead of waiting the stall out. Every slot
// stays independently preemptible (the preemptive context always wins and
// hands the core back to the slot it interrupted), cancelable (lifecycle
// descriptors are per-context), and starvation-accounted (per-slot t0/th).
package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/queue"
	"preemptdb/internal/uintr"
)

// MaxContextsPerCore bounds Config.ContextsPerCore (per-slot state arrays
// and rotation scans are sized/paced for small K; the paper's hardware has
// a handful of outstanding-miss slots, not hundreds).
const MaxContextsPerCore = 16

// Policy selects the scheduling discipline.
type Policy uint8

// The scheduling policies the paper compares (§6.1 "Competing Methods").
const (
	PolicyWait Policy = iota
	PolicyCooperative
	PolicyCooperativeHandcrafted
	PolicyPreempt
)

func (p Policy) String() string {
	switch p {
	case PolicyWait:
		return "Wait"
	case PolicyCooperative:
		return "Cooperative"
	case PolicyCooperativeHandcrafted:
		return "Cooperative (Handcrafted)"
	case PolicyPreempt:
		return "PreemptDB"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Request is one transaction request flowing through the scheduler. Its
// lifecycle fields (Deadline, Cancel) form the descriptor the worker arms on
// the executing context, so in-flight cancellation rides the same poll
// instrumentation that makes preemption work.
type Request struct {
	// HighPriority marks the short, latency-sensitive class.
	HighPriority bool
	// Work runs the transaction body on the executing context. Conflict
	// retries are the body's responsibility; the returned error is recorded.
	Work func(ctx *pcontext.Context) error

	// Deadline is the absolute clock.Nanos() instant after which the request
	// is worthless (0 = none). An expired request still queued is shed
	// before execution; a running one is canceled at its next poll.
	Deadline int64

	// TraceID is the transaction's trace identifier, stamped on the executing
	// context so every scheduling and engine event the transaction generates
	// carries it. Zero means "assign one": the worker draws from the
	// scheduler's shared sequence at execution start and writes it back here.
	// Submitters (the DB facade, or a client over the wire) may pre-assign.
	TraceID uint64

	// EnqueuedAt is stamped by the submitter (clock.Nanos); StartedAt and
	// FinishedAt by the executing worker. Scheduling latency is
	// StartedAt-EnqueuedAt; end-to-end latency FinishedAt-EnqueuedAt.
	EnqueuedAt int64
	StartedAt  int64
	FinishedAt int64
	Err        error

	// OnDone, when set, is called after FinishedAt is stamped.
	OnDone func(*Request)

	// canceled is the submitter-side cancel flag; execCtx/execGen identify
	// the context currently running the request so Cancel can reach a
	// transaction already in flight (the generation fences stale cancels).
	canceled atomic.Bool
	execCtx  atomic.Pointer[pcontext.Context]
	execGen  atomic.Uint64
}

// Cancel marks the request canceled. Queued requests are shed before
// execution; a request already running is canceled at its executing
// context's next poll. Safe to call from any goroutine, repeatedly, and at
// any point in the request's life (after completion it is a no-op).
func (r *Request) Cancel() {
	r.canceled.Store(true)
	if ctx := r.execCtx.Load(); ctx != nil {
		ctx.CancelGen(r.execGen.Load())
	}
}

// Canceled reports whether Cancel was called.
func (r *Request) Canceled() bool { return r.canceled.Load() }

// expired reports whether the request's deadline has passed at time now.
func (r *Request) expired(now int64) bool {
	return r.Deadline != 0 && now >= r.Deadline
}

// SchedulingLatency returns StartedAt-EnqueuedAt in nanoseconds.
func (r *Request) SchedulingLatency() int64 { return r.StartedAt - r.EnqueuedAt }

// Latency returns the end-to-end FinishedAt-EnqueuedAt in nanoseconds.
func (r *Request) Latency() int64 { return r.FinishedAt - r.EnqueuedAt }

// Config sizes and parameterizes a Scheduler. Zero values take the paper's
// defaults (§6.1).
type Config struct {
	// Policy is the scheduling discipline. Default PolicyWait.
	Policy Policy
	// Workers is the number of simulated cores. Default 4.
	Workers int
	// HiQueueSize is the per-worker high-priority queue capacity. Default 4.
	HiQueueSize int
	// LoQueueSize is the per-worker low-priority queue capacity. Default 1.
	LoQueueSize int
	// YieldInterval is the record-access count between cooperative yield
	// checks. Default 10000.
	YieldInterval uint64
	// StarvationThreshold is the maximum starvation level L (fraction of a
	// paused low-priority transaction's lifetime spent on high-priority
	// work). Values >= 1 effectively disable prevention; the paper's default
	// is 100. Default 100.
	StarvationThreshold float64
	// MorselQueueSize caps the shared stealable morsel-task queue (parallel
	// analytical sub-requests, see SubmitMorsel). Default 64.
	MorselQueueSize int
	// ContextsPerCore is the number of transaction contexts K each worker
	// core multiplexes: K-1 low-priority slots plus the preemptive context.
	// Default 2 — the paper's layout and the exact pre-K-way code path (no
	// stall hook is installed, so YieldStall boundaries cost two loads).
	// Values above 2 enable stall-boundary rotation among the low slots.
	// Clamped to [2, MaxContextsPerCore].
	ContextsPerCore int
	// StallInterval is the number of simulated stall boundaries (YieldStall
	// calls: node descents, version hops) a low-priority slot passes between
	// rotation attempts when ContextsPerCore > 2. Default 64 — rotating at
	// every boundary would pay a context switch per node access.
	StallInterval uint64
	// Metrics receives the per-phase latency decomposition (queue wait,
	// execution, pauses, resume, end-to-end) and uintr delivery latency.
	// Default: a fresh registry — instrumentation is always on; pass a shared
	// registry to aggregate with the engine's WAL-wait observations.
	Metrics *metrics.Registry
	// TraceCapacity sizes the always-on per-core scheduling-event ring
	// (events retained per core, rounded up to a power of two). Default 4096;
	// negative disables tracing.
	TraceCapacity int
	// TraceIDs, when set, is the shared trace-id sequence requests without a
	// pre-assigned TraceID draw from. A multi-shard deployment passes one
	// counter to every shard's scheduler so trace ids stay globally unique and
	// a cross-shard transaction's events merge by a single id. Default: a
	// fresh per-scheduler counter.
	TraceIDs *atomic.Uint64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.HiQueueSize == 0 {
		c.HiQueueSize = 4
	}
	if c.LoQueueSize == 0 {
		c.LoQueueSize = 1
	}
	if c.YieldInterval == 0 {
		c.YieldInterval = 10000
	}
	if c.StarvationThreshold == 0 {
		c.StarvationThreshold = 100
	}
	if c.MorselQueueSize == 0 {
		c.MorselQueueSize = 64
	}
	if c.ContextsPerCore < 2 {
		c.ContextsPerCore = 2
	}
	if c.ContextsPerCore > MaxContextsPerCore {
		c.ContextsPerCore = MaxContextsPerCore
	}
	if c.StallInterval == 0 {
		c.StallInterval = 64
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 4096
	}
	if c.TraceIDs == nil {
		c.TraceIDs = new(atomic.Uint64)
	}
	return c
}

// Scheduler owns the workers and implements the dispatch side of the
// policies. Submit calls may come from any number of goroutines (the facade
// submits from every caller, the server from every connection); workers
// consume concurrently.
type Scheduler struct {
	cfg     Config
	workers []*Worker
	rr      atomic.Uint64 // round-robin cursor for high-priority dispatch

	// morselQ is the shared stealable work queue for parallel analytical
	// sub-requests: any worker with nothing else to do pops a task and helps
	// a neighbor's query. MPMC because every worker consumes and any context
	// may produce.
	morselQ *queue.MPMC[func(*pcontext.Context)]

	interruptsSent  atomic.Uint64
	starvationSkips atomic.Uint64
	shedExpired     atomic.Uint64
	shedCanceled    atomic.Uint64
	morselsStolen   atomic.Uint64
	started         bool

	// metrics is the shared phase-latency registry (never nil after New).
	metrics *metrics.Registry
	// traceSeq issues the per-request trace tags stamped on the executing
	// context so trace events can be attributed to a transaction. Shared
	// across schedulers when Config.TraceIDs was supplied.
	traceSeq *atomic.Uint64
}

// Worker is one simulated core with its K transaction contexts and queues.
type Worker struct {
	id   int
	s    *Scheduler
	core *pcontext.Core
	// hiQ is multi-consumer: the low-priority slots and the preemptive
	// context all pop from it (never truly concurrently, but across the
	// park/unpark handoff).
	hiQ *queue.MPMC[*Request]
	// loQ has one consumer at a time but any number of producers: every
	// goroutine that submits at Low pushes here.
	loQ *queue.MPMC[*Request]

	executedHi atomic.Uint64
	executedLo atomic.Uint64

	// slots[i] is the request accounting for context i — one entry per
	// context, so a request on any slot (or the preemptive context) never
	// clobbers a paused sibling's state. Plain fields: every access happens
	// on the context that currently holds the core, and core ownership only
	// transfers through park/unpark handoffs, which order them (the same
	// argument the two-context code made for its single shared pair).
	slots []slotState

	// pubs[i] is slot i's seqlock-published mirror for live introspection:
	// the owning context writes it at state transitions (execute start/end,
	// stall park/resume, preempt pause/resume); any goroutine may read it
	// through SlotTable without touching the plain slotState fields.
	pubs []slotPub

	// resumeTo is the context the preemptive loop hands the core back to:
	// the last low slot it interrupted (via handler or cooperative yield).
	// Written by the interrupted context just before switching away, read by
	// the preemptive context after the handoff.
	resumeTo *pcontext.Context
}

// slotState is one context's request accounting (the per-slot generalization
// of the former per-worker pauseNs/resumeAt/curClass triple).
type slotState struct {
	pauseNs  int64         // preempted-pause nanoseconds accumulated so far
	resumeAt int64         // stamped by the preemptive loop just before handing the core back
	curClass metrics.Class // class of the request the accumulators belong to

	stallNs    int64  // stall-parked (interleaved-out) nanoseconds accumulated so far
	stallStart int64  // non-zero while the slot is parked at a stall boundary
	curTag     uint64 // trace id of the in-flight request (for pause/resume republish)

	// stallParked marks a slot parked mid-transaction at a YieldStall
	// boundary: it is runnable and waiting for a sibling to rotate the core
	// back. idle marks a slot parked with no request in flight: handing it
	// the core makes it pull new work from the queues (that is how the
	// dispatcher fills a worker's K-1 slots). A slot with neither flag is
	// either running or preempt-parked (owed a resume by the preemptive
	// loop) and must not be switched to. These two are the only slot fields a
	// sibling reads, and they are atomic for the one moment the handoff does
	// not order those reads: Shutdown wakes every parked context at once.
	stallParked atomic.Bool
	idle        atomic.Bool
}

// Published slot states (SlotInfo.State).
const (
	SlotIdle        = "idle"         // parked with no request in flight
	SlotRunning     = "running"      // executing a request (or holding the core)
	SlotStallParked = "stall-parked" // parked mid-transaction at a stall boundary
	SlotPreempted   = "preempted"    // paused mid-transaction by the preemptive context
)

// slotPub is one slot's introspection mirror, written only by the context
// that owns the slot and read by SlotTable under the same seqlock discipline
// as the trace ring: the writer bumps seq odd, stores the payload, bumps seq
// even; a reader retries until it sees the same even seq before and after the
// payload loads. All fields are atomics, so concurrent sampling is race-clean
// as well as tear-free.
type slotPub struct {
	seq   atomic.Uint32
	state atomic.Uint32 // 0 idle, 1 running, 2 stall-parked, 3 preempted
	class atomic.Uint32 // metrics.Class of the in-flight request
	tag   atomic.Uint64 // trace id of the in-flight request (0 when idle)
}

const (
	pubIdle uint32 = iota
	pubRunning
	pubStallParked
	pubPreempted
)

// publish writes slot id's mirror. Called only from the owning context.
func (w *Worker) publish(id int, state uint32, class metrics.Class, tag uint64) {
	p := &w.pubs[id]
	p.seq.Add(1) // odd: write in progress
	p.state.Store(state)
	p.class.Store(uint32(class))
	p.tag.Store(tag)
	p.seq.Add(1) // even: stable
}

// SlotInfo is one context slot's sampled state.
type SlotInfo struct {
	Context    int     `json:"context"`
	Preemptive bool    `json:"preemptive"`
	State      string  `json:"state"`
	Class      string  `json:"class,omitempty"` // "hi"/"lo" while occupied
	TraceTag   uint64  `json:"trace_tag,omitempty"`
	Starvation float64 `json:"starvation"`
}

// WorkerState is one worker core's sampled slot table and queue depths.
type WorkerState struct {
	Worker     int        `json:"worker"`
	HiQueueLen int        `json:"hi_queue_len"`
	HiQueueCap int        `json:"hi_queue_cap"`
	LoQueueLen int        `json:"lo_queue_len"`
	LoQueueCap int        `json:"lo_queue_cap"`
	Slots      []SlotInfo `json:"slots"`
}

// SlotTable samples the worker's per-context slot table via the seqlock
// mirrors. Safe from any goroutine while the scheduler runs; each slot's
// fields are mutually consistent (never torn across a transition).
func (w *Worker) SlotTable() []SlotInfo {
	out := make([]SlotInfo, len(w.pubs))
	for i := range w.pubs {
		p := &w.pubs[i]
		var state, class uint32
		var tag uint64
		for attempt := 0; ; attempt++ {
			s1 := p.seq.Load()
			if s1&1 == 0 {
				state = p.state.Load()
				class = p.class.Load()
				tag = p.tag.Load()
				if p.seq.Load() == s1 {
					break
				}
			}
			if attempt >= 4096 {
				// A writer storm outlasting 4096 retries of a 4-store window
				// cannot happen in practice; give up with the idle zero value
				// rather than spin forever.
				state, class, tag = pubIdle, 0, 0
				break
			}
			if attempt%64 == 63 {
				runtime.Gosched()
			}
		}
		info := SlotInfo{
			Context:    i,
			Preemptive: i == len(w.pubs)-1,
			TraceTag:   tag,
		}
		switch state {
		case pubRunning:
			info.State = SlotRunning
		case pubStallParked:
			info.State = SlotStallParked
		case pubPreempted:
			info.State = SlotPreempted
		default:
			info.State = SlotIdle
		}
		if state != pubIdle {
			if metrics.Class(class) == metrics.ClassHi {
				info.Class = "hi"
			} else {
				info.Class = "lo"
			}
		}
		if ctx := w.core.Context(i); ctx != nil {
			info.Starvation = ctx.StarvationLevel()
		}
		out[i] = info
	}
	return out
}

// State samples the worker's slot table plus queue depths.
func (w *Worker) State() WorkerState {
	return WorkerState{
		Worker:     w.id,
		HiQueueLen: w.hiQ.Len(),
		HiQueueCap: w.hiQ.Cap(),
		LoQueueLen: w.loQ.Len(),
		LoQueueCap: w.loQ.Cap(),
		Slots:      w.SlotTable(),
	}
}

// State samples every worker's slot table and queue depths — the live
// scheduler introspection surface behind /debug/sched. Safe concurrently
// with execution; zero allocations on any hot path (sampling allocates, the
// publishing side does not).
func (s *Scheduler) State() []WorkerState {
	out := make([]WorkerState, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.State()
	}
	return out
}

// ID returns the worker index.
func (w *Worker) ID() int { return w.id }

// Core exposes the worker's simulated core.
func (w *Worker) Core() *pcontext.Core { return w.core }

// ExecutedHigh returns the number of completed high-priority requests.
func (w *Worker) ExecutedHigh() uint64 { return w.executedHi.Load() }

// ExecutedLow returns the number of completed low-priority requests.
func (w *Worker) ExecutedLow() uint64 { return w.executedLo.Load() }

// New builds a scheduler; call Start to launch the workers.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		morselQ:  queue.NewMPMC[func(*pcontext.Context)](cfg.MorselQueueSize),
		metrics:  cfg.Metrics,
		traceSeq: cfg.TraceIDs,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{
			id:    i,
			s:     s,
			core:  pcontext.NewCore(i, cfg.ContextsPerCore),
			hiQ:   queue.NewMPMC[*Request](cfg.HiQueueSize),
			loQ:   queue.NewMPMC[*Request](cfg.LoQueueSize),
			slots: make([]slotState, cfg.ContextsPerCore),
			pubs:  make([]slotPub, cfg.ContextsPerCore),
		}
		for si := range w.slots {
			w.slots[si].idle.Store(true) // every slot starts parked with no request
		}
		w.core.SetUserData(w)
		if cfg.TraceCapacity > 0 {
			w.core.SetTracer(pcontext.NewTracer(cfg.TraceCapacity))
		}
		id := i
		w.core.SetDeliveryObserver(func(ns int64) { s.metrics.ObserveDelivery(id, ns) })
		s.workers = append(s.workers, w)
	}
	return s
}

// Metrics returns the scheduler's phase-latency registry (never nil).
func (s *Scheduler) Metrics() *metrics.Registry { return s.metrics }

// TraceSnapshot collects every worker's scheduling-event trace. Safe while
// the scheduler runs; see Tracer.Snapshot for the staleness contract.
func (s *Scheduler) TraceSnapshot() []pcontext.CoreEvents {
	var out []pcontext.CoreEvents
	for _, w := range s.workers {
		if tr := w.core.Tracer(); tr != nil {
			out = append(out, pcontext.CoreEvents{Core: w.id, Events: tr.Snapshot()})
		}
	}
	return out
}

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Workers returns the worker set.
func (s *Scheduler) Workers() []*Worker { return s.workers }

// InterruptsSent returns the number of user interrupts issued.
func (s *Scheduler) InterruptsSent() uint64 { return s.interruptsSent.Load() }

// StarvationSkips returns how many scheduler-side dispatches were withheld
// because a worker's starvation level exceeded the threshold.
func (s *Scheduler) StarvationSkips() uint64 { return s.starvationSkips.Load() }

// ShedExpired returns how many queued requests were dropped at dispatch
// because their deadline had already passed.
func (s *Scheduler) ShedExpired() uint64 { return s.shedExpired.Load() }

// ShedCanceled returns how many queued requests were dropped at dispatch
// because their submitter canceled them before they ran.
func (s *Scheduler) ShedCanceled() uint64 { return s.shedCanceled.Load() }

// MorselsStolen returns how many morsel helper tasks idle workers picked up
// from the shared queue.
func (s *Scheduler) MorselsStolen() uint64 { return s.morselsStolen.Load() }

// StallYields returns how many times a low-priority slot rotated the core
// away at a simulated stall boundary (K-way interleaving; zero when
// ContextsPerCore is 2).
func (s *Scheduler) StallYields() uint64 { return s.metrics.StallYields() }

// InterleaveSwitches returns how many switches resumed a stall-parked
// transaction (from a rotating sibling or an idle slot handing over).
func (s *Scheduler) InterleaveSwitches() uint64 { return s.metrics.InterleaveSwitches() }

// SubmitMorsel offers one stealable morsel helper task to the shared queue.
// Unlike SubmitLow/SubmitHighBatch it is safe from any goroutine (the queue
// is MPMC), because analytical transactions spawn helpers from whichever
// worker context they run on. A worker claims a task only when both its
// priority queues are empty — morsels are strictly lower priority than every
// queued request — and runs it with the starvation meter armed, so a
// high-priority burst preempts a stolen morsel exactly like any other
// low-priority transaction. Returns false when the queue is full; the caller
// simply runs more morsels itself.
func (s *Scheduler) SubmitMorsel(fn func(ctx *pcontext.Context)) bool {
	if fn == nil {
		return false
	}
	return s.morselQ.Push(fn)
}

// MorselSpawner returns a spawn function that dispatches morsel helper tasks
// to the scheduler owning ctx's core, or nil when ctx is detached (no
// scheduler — callers then run their morsels inline). The signature matches
// engine.ParallelScanConfig.Spawn.
func MorselSpawner(ctx *pcontext.Context) func(fn func(ctx *pcontext.Context)) bool {
	if ctx == nil || ctx.Core() == nil {
		return nil
	}
	w, ok := ctx.Core().UserData().(*Worker)
	if !ok {
		return nil
	}
	return w.s.SubmitMorsel
}

// Start launches every worker's contexts and installs the policy hooks.
func (s *Scheduler) Start() {
	if s.started {
		panic("sched: Start called twice")
	}
	s.started = true
	for _, w := range s.workers {
		w.install()
		// Contexts 0..K-2 are interchangeable low-priority slots; the last
		// context is the distinct preemptive one (always wins, never rotates).
		entries := make([]func(*pcontext.Context), w.core.NumContexts())
		for i := 0; i < len(entries)-1; i++ {
			entries[i] = w.slotLoop
		}
		entries[len(entries)-1] = w.preemptiveLoop
		w.core.Start(entries)
	}
}

// Stop shuts every worker down and waits for their contexts to exit.
// Requests still queued are dropped.
func (s *Scheduler) Stop() {
	for _, w := range s.workers {
		// Wake the core via a shutdown vector in case it sits in a long
		// transaction polling only for interrupts.
		uintr.SendUIPI(w.core.Receiver().UPID(), uintr.VecShutdown)
	}
	for _, w := range s.workers {
		w.core.Shutdown()
	}
}

// lowSlots returns the number of low-priority context slots (K-1; the last
// context is the preemptive one).
func (w *Worker) lowSlots() int { return w.core.NumContexts() - 1 }

// preemptiveCtx returns the worker's distinct preemptive context.
func (w *Worker) preemptiveCtx() *pcontext.Context {
	return w.core.Context(w.core.NumContexts() - 1)
}

// install wires the policy-specific handler/hook on the worker's core.
func (w *Worker) install() {
	if w.lowSlots() > 1 {
		// K-way multiplexing: rotate among the low slots at simulated stall
		// boundaries, under every policy (interleaving is orthogonal to how
		// high-priority work preempts).
		w.core.SetStallHook(w.stallPoint)
	}
	switch w.s.cfg.Policy {
	case PolicyPreempt:
		w.core.SetHandler(func(cur *pcontext.Context, vectors uint64) {
			if !uintr.Has(vectors, uintr.VecPreempt) {
				return // e.g. shutdown ping
			}
			w.handlePreempt(cur)
		})
	case PolicyCooperative:
		interval := w.s.cfg.YieldInterval
		w.core.SetPollHook(func(cur *pcontext.Context) {
			cls := cur.CLS()
			if cls.Accesses-cls.LastYield < interval {
				return
			}
			cls.LastYield = cls.Accesses
			w.yieldPoint(cur)
		})
	default:
		// Wait and CooperativeHandcrafted install nothing; the latter's
		// yields come from workload calls to Yield.
	}
}

// handlePreempt is the user-interrupt handler body: switch the interrupted
// low slot to the preemptive context if there is work and no reason to hold
// back. It runs with interrupts disabled (UIF clear), like a hardware
// handler.
func (w *Worker) handlePreempt(cur *pcontext.Context) {
	if w.core.Done() {
		return
	}
	hp := w.preemptiveCtx()
	if cur == hp {
		// The paper does not interrupt an in-progress high-priority
		// transaction; drop the interrupt (the queue will be drained by the
		// already-running preemptive loop).
		return
	}
	if w.hiQ.Empty() {
		return // spurious or raced: nothing to do (fig8's overhead path)
	}
	w.resumeTo = cur
	st := &w.slots[cur.ID()]
	w.publish(cur.ID(), pubPreempted, st.curClass, st.curTag)
	pauseStart := clock.Nanos()
	cur.SwitchTo(hp)
	w.notePauseEnd(cur, pauseStart)
}

// notePauseEnd runs on the interrupted context the instant it holds the core
// again after a preemption: it accumulates the pause into its slot's request
// total and records the per-pause and resume-latency phases.
func (w *Worker) notePauseEnd(cur *pcontext.Context, pauseStart int64) {
	st := &w.slots[cur.ID()]
	w.publish(cur.ID(), pubRunning, st.curClass, st.curTag)
	now := clock.Nanos()
	pause := now - pauseStart
	st.pauseNs += pause
	m := w.s.metrics
	m.Observe(st.curClass, metrics.PhasePause, w.id, pause)
	if st.resumeAt != 0 {
		m.Observe(st.curClass, metrics.PhaseResume, w.id, now-st.resumeAt)
		st.resumeAt = 0
	}
}

// yieldPoint implements the cooperative check: if high-priority work is
// queued, voluntarily swap to the preemptive context (which drains the queue
// and swaps back).
func (w *Worker) yieldPoint(cur *pcontext.Context) {
	hp := w.preemptiveCtx()
	if w.core.Done() || cur == hp {
		return
	}
	if w.hiQ.Empty() {
		return
	}
	w.resumeTo = cur
	st := &w.slots[cur.ID()]
	w.publish(cur.ID(), pubPreempted, st.curClass, st.curTag)
	pauseStart := clock.Nanos()
	cur.SwapContext(hp)
	w.notePauseEnd(cur, pauseStart)
}

// stallPoint is the stall hook (installed when ContextsPerCore > 2): every
// StallInterval simulated stall boundaries it rotates the core from the
// stalling low slot to the next runnable sibling — a slot parked
// mid-transaction at its own stall boundary, or an idle slot when
// low-priority work is queued (that is how the batch dispatcher keeps K-1
// slots filled). The stalling transaction parks and resumes when a sibling
// rotates back; the time parked is recorded as its stall_overlap phase, not
// its execution time.
func (w *Worker) stallPoint(cur *pcontext.Context) {
	id := cur.ID()
	if w.core.Done() || id >= w.lowSlots() {
		return // the preemptive context never rotates; hi p99 stays flat in K
	}
	cls := cur.CLS()
	if cls.HighPrio {
		// A low slot draining the hi queue between transactions is running
		// high-priority work in place: rotating away would park that request
		// behind batch work — a priority inversion. Hi-class occupancy runs
		// straight through its stall boundaries.
		return
	}
	if cls.Stalls-cls.LastStallYield < w.s.cfg.StallInterval {
		return
	}
	cls.LastStallYield = cls.Stalls
	target := w.rotationTarget(id)
	if target == nil {
		return // no runnable sibling: keep running (the "prefetch hit" path)
	}
	st := &w.slots[id]
	st.stallParked.Store(true)
	st.stallStart = clock.Nanos()
	w.publish(id, pubStallParked, st.curClass, st.curTag)
	w.s.metrics.IncStallYield()
	if w.slots[target.ID()].stallParked.Load() {
		w.s.metrics.IncInterleaveSwitch()
	}
	cur.SwapContext(target)
	// Resumed: a sibling rotated back (or handed over before going idle).
	st.stallParked.Store(false)
	st.stallNs += clock.Nanos() - st.stallStart
	st.stallStart = 0
	w.publish(id, pubRunning, st.curClass, st.curTag)
}

// rotationTarget picks the next runnable low slot after `from` in ring
// order: a stall-parked sibling resumes its in-flight transaction; an idle
// sibling is chosen only when the low-priority queue has work for it to
// pull. Returns nil when no sibling is runnable.
func (w *Worker) rotationTarget(from int) *pcontext.Context {
	n := w.lowSlots()
	wantIdle := !w.loQ.Empty()
	for i := 1; i < n; i++ {
		j := from + i
		if j >= n {
			j -= n
		}
		st := &w.slots[j]
		if st.stallParked.Load() || (wantIdle && st.idle.Load()) {
			return w.core.Context(j)
		}
	}
	return nil
}

// stallParkedSibling returns the next low slot after `from` parked at a
// stall boundary, or nil. Idle slots use it to hand the core to in-flight
// work before backing off.
func (w *Worker) stallParkedSibling(from int) *pcontext.Context {
	n := w.lowSlots()
	for i := 1; i < n; i++ {
		j := from + i
		if j >= n {
			j -= n
		}
		if w.slots[j].stallParked.Load() {
			return w.core.Context(j)
		}
	}
	return nil
}

// Yield is the workload-visible yield point for handcrafted cooperative
// scheduling (paper §6.3's Cooperative (Handcrafted)): the workload calls it
// at hand-chosen locations, e.g. every N nested query blocks of Q2. It is a
// no-op for contexts not owned by a scheduler worker.
func Yield(ctx *pcontext.Context) {
	if ctx == nil || ctx.Core() == nil {
		return
	}
	w, ok := ctx.Core().UserData().(*Worker)
	if !ok {
		return
	}
	w.yieldPoint(ctx)
}

// slotLoop is the body of every low-priority context slot: the regular
// scheduling path, generalized from the two-context regular loop. It prefers
// the high-priority queue between transactions (all policies do, per §6.1's
// Wait definition), then runs low-priority transactions with starvation
// accounting armed. With nothing queued it hands the core to a stall-parked
// sibling before backing off, so an idle slot never sits on core time an
// interleaved transaction could use.
func (w *Worker) slotLoop(ctx *pcontext.Context) {
	st := &w.slots[ctx.ID()]
	idle := 0
	ranLow := false
	for !w.core.Done() {
		// §6.1: "Each worker thread starts with the low-priority transaction
		// queue to run Q2" and only then prefers the high-priority queue
		// between transactions. Starting low also arms the starvation meter
		// before any admission decision is taken against this worker.
		if !ranLow {
			if req, ok := w.loQ.Pop(); ok {
				st.idle.Store(false)
				w.runLow(ctx, req)
				st.idle.Store(true)
				ranLow = true
				idle = 0
				continue
			}
		}
		if req, ok := w.hiQ.Pop(); ok {
			st.idle.Store(false)
			w.execute(ctx, req)
			st.idle.Store(true)
			idle = 0
			continue
		}
		if req, ok := w.loQ.Pop(); ok {
			st.idle.Store(false)
			w.runLow(ctx, req)
			st.idle.Store(true)
			ranLow = true
			idle = 0
			continue
		}
		// Both priority queues empty: help a neighbor's parallel scan before
		// going idle. Morsel tasks run with the starvation meter armed, so a
		// high-priority burst preempts the stolen work like any low-priority
		// transaction.
		if fn, ok := w.s.morselQ.Pop(); ok {
			st.idle.Store(false)
			w.runMorsel(ctx, fn)
			st.idle.Store(true)
			idle = 0
			continue
		}
		// Nothing queued for this slot: resume a sibling parked mid-flight at
		// a stall boundary rather than spinning while its transaction waits.
		if target := w.stallParkedSibling(ctx.ID()); target != nil {
			w.s.metrics.IncInterleaveSwitch()
			ctx.SwapContext(target)
			idle = 0
			continue
		}
		// Idle: back off so other simulated cores get real CPU time.
		idle++
		if idle < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// preemptiveLoop is the last context's body: it wakes when switched to,
// drains the high-priority queue (stopping early if the starvation threshold
// is crossed, §5), and actively swaps the core back to the low slot it
// interrupted.
func (w *Worker) preemptiveLoop(ctx *pcontext.Context) {
	thr := w.s.cfg.StarvationThreshold
	for !w.core.Done() {
		for {
			// >= so a threshold of 0 admits nothing on the preemptive
			// context (fig12's extreme point: those requests drain through
			// the regular path instead).
			if thr < 1 && w.core.StarvationLevel() >= thr {
				break // return the core to the starved low-priority txn
			}
			req, ok := w.hiQ.Pop()
			if !ok {
				break
			}
			start := clock.Nanos()
			w.execute(ctx, req)
			w.core.AddHighPrioNanos(clock.Nanos() - start)
		}
		back := w.resumeTo
		if back == nil {
			back = w.core.Context(0) // woken before any interrupt (shutdown ping)
		}
		// Stamp the hand-back decision instant so the paused slot can report
		// its resume latency once it actually runs.
		w.slots[back.ID()].resumeAt = clock.Nanos()
		ctx.SwapContext(back)
	}
}

// runLow executes a low-priority request with the executing slot's
// starvation accounting armed: the meter resets at transaction start and
// freezes its final level at the end (paper §5, per-slot).
func (w *Worker) runLow(ctx *pcontext.Context, req *Request) {
	ctx.BeginLowPrio()
	w.execute(ctx, req)
	ctx.EndLowPrio()
}

// runMorsel executes one stolen morsel helper task under low-priority
// starvation accounting. The task arms/disarms its own lifecycle (the engine
// helper does this), so the scheduler only brackets the starvation meter.
func (w *Worker) runMorsel(ctx *pcontext.Context, fn func(*pcontext.Context)) {
	w.s.morselsStolen.Add(1)
	st := &w.slots[ctx.ID()]
	savedPause, savedClass, savedStall, savedTag := st.pauseNs, st.curClass, st.stallNs, st.curTag
	st.pauseNs, st.curClass, st.stallNs, st.curTag = 0, metrics.ClassLo, 0, ctx.TraceTag()
	w.publish(ctx.ID(), pubRunning, metrics.ClassLo, st.curTag)
	ctx.BeginLowPrio()
	fn(ctx)
	ctx.EndLowPrio()
	st.pauseNs, st.curClass, st.stallNs, st.curTag = savedPause, savedClass, savedStall, savedTag
	w.publish(ctx.ID(), pubIdle, 0, 0)
}

// boolByte packs a bool into a span detail byte.
func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// shed completes a request without running it — the dispatch-side drop for
// requests that were canceled, or whose deadline expired, while still queued.
// Executing such a request would only burn core time its submitter has
// already written off. Returns true when the request was shed.
func (w *Worker) shed(req *Request) bool {
	now := clock.Nanos()
	switch {
	case req.Canceled():
		req.Err = pcontext.ErrCanceled
		w.s.shedCanceled.Add(1)
	case req.expired(now):
		req.Err = pcontext.ErrDeadlineExceeded
		w.s.shedExpired.Add(1)
	default:
		return false
	}
	req.StartedAt = now
	req.FinishedAt = now
	if req.OnDone != nil {
		req.OnDone(req)
	}
	return true
}

// execute runs one request, stamping its latency fields. The request's
// lifecycle descriptor is armed on the executing context for the duration of
// Work, so Poll observes the deadline and cross-goroutine Cancel at
// instruction granularity.
func (w *Worker) execute(ctx *pcontext.Context, req *Request) {
	if w.shed(req) {
		return
	}
	class := metrics.ClassLo
	if req.HighPriority {
		class = metrics.ClassHi
	}
	// Fresh pause/stall accumulators for this request in the executing
	// context's own slot; save/restore so nested occupancy of the same slot
	// (the preemptive context draining several requests back to back, a
	// morsel task) never bleeds accounting across requests. Cross-slot
	// isolation needs no saving at all — each context indexes its own entry.
	st := &w.slots[ctx.ID()]
	savedPause, savedClass, savedStall := st.pauseNs, st.curClass, st.stallNs
	st.pauseNs, st.curClass, st.stallNs = 0, class, 0
	// Annotate trace events and engine-side observations (the commit path
	// reads CLS.HighPrio to classify its WAL wait) for the duration of Work.
	cls := ctx.CLS()
	savedHi, savedTag := cls.HighPrio, ctx.TraceTag()
	cls.HighPrio = req.HighPriority
	tag := req.TraceID
	if tag == 0 {
		tag = w.s.traceSeq.Add(1)
		req.TraceID = tag
	}
	ctx.SetTraceTag(tag)
	st.curTag = tag
	w.publish(ctx.ID(), pubRunning, class, tag)
	gen := ctx.Arm(req.Deadline)
	req.execGen.Store(gen)
	req.execCtx.Store(ctx)
	// Dekker-style re-check: a Cancel that loaded execCtx before the store
	// above couldn't reach this context, so look at the flag again now that
	// the handoff is published.
	if req.Canceled() {
		ctx.CancelGen(gen)
	}
	req.StartedAt = clock.Nanos()
	if req.EnqueuedAt != 0 {
		ctx.TraceEvent(pcontext.EvTxnStart, pcontext.SpanAux(req.StartedAt-req.EnqueuedAt, boolByte(req.HighPriority)))
	} else {
		ctx.TraceEvent(pcontext.EvTxnStart, pcontext.SpanAux(0, boolByte(req.HighPriority)))
	}
	req.Err = req.Work(ctx)
	req.FinishedAt = clock.Nanos()
	ctx.TraceEvent(pcontext.EvTxnEnd, pcontext.SpanAux(req.FinishedAt-req.StartedAt, boolByte(req.Err != nil)))
	req.execCtx.Store(nil)
	ctx.Disarm()
	ctx.SetTraceTag(savedTag)
	cls.HighPrio = savedHi
	pause, stall := st.pauseNs, st.stallNs
	st.pauseNs, st.curClass, st.stallNs = savedPause, savedClass, savedStall
	st.curTag = savedTag
	w.publish(ctx.ID(), pubIdle, 0, 0)
	m := w.s.metrics
	m.Observe(class, metrics.PhaseExec, w.id, req.FinishedAt-req.StartedAt-pause-stall)
	if pause > 0 {
		m.Observe(class, metrics.PhasePauseTotal, w.id, pause)
	}
	if stall > 0 {
		m.Observe(class, metrics.PhaseStallOverlap, w.id, stall)
	}
	if req.EnqueuedAt != 0 {
		m.Observe(class, metrics.PhaseQueueWait, w.id, req.StartedAt-req.EnqueuedAt)
		m.Observe(class, metrics.PhaseTotal, w.id, req.FinishedAt-req.EnqueuedAt)
	}
	if req.HighPriority {
		w.executedHi.Add(1)
	} else {
		w.executedLo.Add(1)
	}
	if req.OnDone != nil {
		req.OnDone(req)
	}
}

// SubmitLow offers a low-priority request to worker wid's queue, stamping
// EnqueuedAt unless the caller already did. It reports false when the queue
// is full.
func (s *Scheduler) SubmitLow(wid int, req *Request) bool {
	req.HighPriority = false
	if req.EnqueuedAt == 0 {
		req.EnqueuedAt = clock.Nanos()
	}
	return s.workers[wid].loQ.Push(req)
}

// SubmitHighBatch implements batched on-demand preemption (§5): requests are
// distributed round-robin, filling each selected worker's high-priority
// queue as far as possible and sending that worker a single user interrupt
// (under PolicyPreempt). Workers above the starvation threshold are skipped.
// It returns the number of requests accepted; the rest should be retried at
// the next arrival interval.
func (s *Scheduler) SubmitHighBatch(reqs []*Request) int {
	now := clock.Nanos()
	accepted := 0
	thr := s.cfg.StarvationThreshold
	remaining := reqs
	for attempts := 0; attempts < len(s.workers) && len(remaining) > 0; attempts++ {
		w := s.workers[(s.rr.Add(1)-1)%uint64(len(s.workers))]
		// Decision point 1 (§5): when the worker's starvation level has
		// reached the threshold, push nothing and send no interrupt. The
		// level stays defined between low-priority transactions (T0 is only
		// reset at the next low-priority start), so at threshold 0 a worker
		// that has ever ceded cycles keeps refusing dispatch — the paper's
		// extreme where Q2 reaches maximum throughput and high-priority
		// requests trickle through the regular path only.
		if thr < 1 && w.core.StarvationLevel() >= thr {
			s.starvationSkips.Add(1)
			continue
		}
		pushed := 0
		for len(remaining) > 0 {
			req := remaining[0]
			req.HighPriority = true
			if req.EnqueuedAt == 0 {
				req.EnqueuedAt = now
			}
			if !w.hiQ.Push(req) {
				break // queue full; move to the next worker
			}
			remaining = remaining[1:]
			pushed++
		}
		if pushed > 0 {
			accepted += pushed
			if s.cfg.Policy == PolicyPreempt {
				uintr.SendUIPI(w.core.Receiver().UPID(), uintr.VecPreempt)
				s.interruptsSent.Add(1)
			}
		}
	}
	return accepted
}

// PingAll sends an empty (no enqueued work) preemption interrupt to every
// worker — the fig8 overhead experiment, which measures the cost of the
// interrupt machinery when there is never high-priority work.
func (s *Scheduler) PingAll() {
	for _, w := range s.workers {
		uintr.SendUIPI(w.core.Receiver().UPID(), uintr.VecPreempt)
		s.interruptsSent.Add(1)
	}
}
