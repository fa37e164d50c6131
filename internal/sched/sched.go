// Package sched implements PreemptDB's transaction scheduling layer
// (paper §4.1, §5): a scheduling thread dispatches priority-tagged
// transaction requests into per-worker high- and low-priority queues, and
// each worker — a simulated core hosting the paper's two transaction
// contexts, one regular context that runs low-priority work and one
// preemptive context that runs high-priority batches — executes them under
// one of the competing policies the paper evaluates:
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
// mid-batch. An in-progress high-priority transaction is never interrupted,
// whichever context runs it: a batch that arrives meanwhile waits in the
// queue, and the regular context takes it next.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"preemptdb/internal/clock"
	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/queue"
	"preemptdb/internal/uintr"
)

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

// ErrStopped completes every request still queued when Stop runs, and every
// request pushed after it began. The public API re-exports it as ErrClosed.
var ErrStopped = errors.New("preemptdb: database closed")

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
	// ContextsPerCore is not an option: every core is the paper's regular
	// context plus its preemptive context. The field stays because the
	// ledger's htap_mix configuration spells that layout out; New accepts 0
	// (the default) or 2 and panics on anything else.
	ContextsPerCore int
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
	if c.ContextsPerCore == 0 {
		c.ContextsPerCore = contextsPerCore
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

	interruptsSent  atomic.Uint64
	starvationSkips atomic.Uint64
	shedExpired     atomic.Uint64
	shedCanceled    atomic.Uint64
	started         bool
	// stopping is set by Stop before it wakes the workers, so a worker
	// about to park sees it even before its core reports Done.
	stopping atomic.Bool

	// metrics is the shared phase-latency registry (never nil after New).
	metrics *metrics.Registry
	// traceSeq issues the per-request trace tags stamped on the executing
	// context so trace events can be attributed to a transaction. Shared
	// across schedulers when Config.TraceIDs was supplied.
	traceSeq *atomic.Uint64
}

// contextsPerCore is the paper's core layout: context 0 is the regular
// context, context 1 the preemptive one.
const contextsPerCore = 2

// Worker is one simulated core with its two transaction contexts and queues.
type Worker struct {
	id   int
	s    *Scheduler
	core *pcontext.Core
	// hiQ is multi-consumer: the regular and the preemptive context both pop
	// from it (never concurrently; the core runs one context at a time).
	hiQ *queue.MPMC[*Request]
	// loQ has one consumer at a time but any number of producers: every
	// goroutine that submits at Low pushes here.
	loQ *queue.MPMC[*Request]

	executedHi atomic.Uint64
	executedLo atomic.Uint64

	// sleeping is set while the regular context is committing to park on
	// wake; a submitter that pushes and then sees it posts the token.
	sleeping atomic.Bool
	wake     chan struct{} // one-slot wake token
	parks    atomic.Uint64

	// slots[i] is the request accounting for context i, so a request on the
	// preemptive context never clobbers the paused one's state. Plain fields:
	// the core runs one context at a time and its switch orders them.
	slots [contextsPerCore]slotState

	// pubs[i] is slot i's seqlock-published mirror for live introspection:
	// the owning context writes it at state transitions (execute start/end,
	// preempt pause/resume); any goroutine may read it through SlotTable
	// without touching the plain slotState fields.
	pubs [contextsPerCore]slotPub
}

// slotState is one context's request accounting.
type slotState struct {
	pauseNs  int64         // preempted-pause nanoseconds accumulated so far
	curClass metrics.Class // class of the request the accumulators belong to
	curTag   uint64        // trace id of the in-flight request (for pause/resume republish)
	resumeAt int64         // hand-back instant stamped by the preemptive loop (0 = none)
}

// Published slot states (SlotInfo.State).
const (
	SlotIdle      = "idle"      // parked with no request in flight
	SlotRunning   = "running"   // executing a request (or holding the core)
	SlotPreempted = "preempted" // paused mid-transaction by the preemptive context
)

// slotPub is one slot's introspection mirror, written only by the context
// that owns the slot and read by SlotTable under the same seqlock discipline
// as the trace ring: the writer bumps seq odd, stores the payload, bumps seq
// even; a reader retries until it sees the same even seq before and after the
// payload loads. All fields are atomics, so concurrent sampling is race-clean
// as well as tear-free.
type slotPub struct {
	seq   atomic.Uint32
	state atomic.Uint32 // 0 idle, 1 running, 2 preempted
	class atomic.Uint32 // metrics.Class of the in-flight request
	tag   atomic.Uint64 // trace id of the in-flight request (0 when idle)
}

const (
	pubIdle uint32 = iota
	pubRunning
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

// Parks returns how many times the regular context has parked idle.
func (w *Worker) Parks() uint64 { return w.parks.Load() }

// New builds a scheduler; call Start to launch the workers. It panics when
// cfg.ContextsPerCore is neither 0 nor 2.
func New(cfg Config) *Scheduler {
	if cfg.ContextsPerCore != 0 && cfg.ContextsPerCore != contextsPerCore {
		panic(fmt.Sprintf("sched: ContextsPerCore = %d; a core is one regular and one preemptive context (0 or 2)", cfg.ContextsPerCore))
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		traceSeq: cfg.TraceIDs,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{
			id:   i,
			s:    s,
			core: pcontext.NewCore(i, contextsPerCore),
			hiQ:  queue.NewMPMC[*Request](cfg.HiQueueSize),
			loQ:  queue.NewMPMC[*Request](cfg.LoQueueSize),
			wake: make(chan struct{}, 1),
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

// Start launches every worker's contexts and installs the policy hooks.
func (s *Scheduler) Start() {
	if s.started {
		panic("sched: Start called twice")
	}
	s.started = true
	for _, w := range s.workers {
		w.install()
		w.core.Start([]func(*pcontext.Context){w.slotLoop, w.preemptiveLoop})
	}
}

// Stop shuts every worker down and waits for their contexts to exit.
// Running transactions finish; requests still queued then complete with
// ErrStopped, each exactly once.
func (s *Scheduler) Stop() {
	s.stopping.Store(true)
	for _, w := range s.workers {
		// Wake the core via a shutdown vector in case it sits in a long
		// transaction polling only for interrupts, and via its wake token in
		// case it is parked idle.
		uintr.SendUIPI(w.core.Receiver().UPID(), uintr.VecShutdown)
		w.wakeIfParked()
	}
	for _, w := range s.workers {
		w.core.Shutdown()
		w.drain()
	}
}

// drain completes every request in w's queues with ErrStopped. Stop calls it
// once the core is down, and so does every submitter whose push lands after
// stopping is set: the submitter pushes before it loads stopping and Stop
// stores stopping before it drains, so either Stop's drain sees the push or
// the submitter drains it. Pop hands each request to one caller only.
func (w *Worker) drain() {
	for _, q := range []*queue.MPMC[*Request]{w.hiQ, w.loQ} {
		for req, ok := q.Pop(); ok; req, ok = q.Pop() {
			req.Err = ErrStopped
			req.StartedAt = clock.Nanos()
			req.FinishedAt = req.StartedAt
			if req.OnDone != nil {
				req.OnDone(req)
			}
		}
	}
}

// install wires the policy-specific handler/hook on the worker's core.
func (w *Worker) install() {
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
// regular context to the preemptive context if there is work and no reason
// to hold back. It runs with interrupts disabled (UIF clear), like a
// hardware handler.
func (w *Worker) handlePreempt(cur *pcontext.Context) {
	if w.core.Done() || w.runsHigh(cur) || w.hiQ.Empty() {
		// An empty queue is a spurious, raced or empty interrupt, absorbed
		// without a switch; otherwise the batch waits for the running
		// high-priority transaction and is taken next.
		return
	}
	st := &w.slots[cur.ID()]
	w.publish(cur.ID(), pubPreempted, st.curClass, st.curTag)
	pauseStart := clock.Nanos()
	cur.SwitchTo(w.core.Context(1))
	w.notePauseEnd(cur, pauseStart)
}

// runsHigh reports whether cur is executing a high-priority transaction:
// the preemptive context draining a batch, or the regular context running
// one it took from the queue between low-priority transactions. The paper
// never interrupts an in-progress high-priority transaction — pausing it
// would leave the batch's conflicts against a holder that cannot run.
func (w *Worker) runsHigh(cur *pcontext.Context) bool {
	return w.slots[cur.ID()].curClass == metrics.ClassHi
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
	if at := st.resumeAt; at != 0 {
		st.resumeAt = 0
		m.Observe(st.curClass, metrics.PhaseResume, w.id, now-at)
	}
}

// yieldPoint implements the cooperative check: if high-priority work is
// queued, voluntarily swap to the preemptive context (which drains the queue
// and swaps back).
func (w *Worker) yieldPoint(cur *pcontext.Context) {
	if w.core.Done() || w.runsHigh(cur) || w.hiQ.Empty() {
		return
	}
	st := &w.slots[cur.ID()]
	w.publish(cur.ID(), pubPreempted, st.curClass, st.curTag)
	pauseStart := clock.Nanos()
	cur.SwapContext(w.core.Context(1))
	w.notePauseEnd(cur, pauseStart)
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

// idleSpins is how many Gosched rounds an idle regular context spends
// re-checking its queues before it parks (DESIGN.md §10, "Idle worker").
const idleSpins = 8

// slotLoop is the regular context's body. It prefers the high-priority
// queue between transactions (all policies do, per §6.1's Wait definition),
// then runs low-priority transactions with starvation accounting armed.
func (w *Worker) slotLoop(ctx *pcontext.Context) {
	idle := 0
	started := false
	for !w.core.Done() {
		// §6.1: "Each worker thread starts with the low-priority transaction
		// queue to run Q2" and only then prefers the high-priority queue
		// between transactions. Starting low also arms the starvation meter
		// before any admission decision is taken against this worker. Once
		// anything has run the preference is high first, so a batch held
		// back behind a high-priority transaction here runs next.
		if !started {
			if req, ok := w.loQ.Pop(); ok {
				w.runLow(ctx, req)
				started, idle = true, 0
				continue
			}
		}
		if req, ok := w.hiQ.Pop(); ok {
			w.execute(ctx, req)
		} else if req, ok := w.loQ.Pop(); ok {
			w.runLow(ctx, req)
		} else {
			// Idle: yield the thread for a few rounds, then park until a
			// submitter or Stop posts the wake token.
			idle++
			if idle <= idleSpins {
				runtime.Gosched()
			} else {
				w.park()
			}
			continue
		}
		started, idle = true, 0
	}
}

// park blocks the idle regular context on its wake token. It publishes
// sleeping before re-checking the queues and Stop; a submitter pushes before
// it reads sleeping. Both sides use sequentially consistent atomics and Len
// counts a claimed ticket before its slot is published, so either the
// re-check sees the push (and the loop pops it or spins until it is
// published) or the submitter sees sleeping and posts. No timer backs this
// up: one would only hide a lost wake-up.
func (w *Worker) park() {
	w.sleeping.Store(true)
	if w.hiQ.Len() > 0 || w.loQ.Len() > 0 || w.s.stopping.Load() {
		w.sleeping.Store(false)
		runtime.Gosched()
		return
	}
	w.parks.Add(1)
	<-w.wake
	w.sleeping.Store(false)
}

// wakeIfParked posts w's wake token when its regular context has published
// sleeping. Callers first make their push, or stopping, visible; a token
// already pending covers this post too.
func (w *Worker) wakeIfParked() {
	if !w.sleeping.Load() {
		return
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// preemptiveLoop is the preemptive context's body: it wakes when switched
// to, drains the high-priority queue (stopping early if the starvation
// threshold is crossed, §5), and actively swaps the core back to the
// regular context.
func (w *Worker) preemptiveLoop(ctx *pcontext.Context) {
	thr := w.s.cfg.StarvationThreshold
	regular := w.core.Context(0)
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
		// Stamp the hand-back decision instant so the paused context can
		// report its resume latency once it actually runs.
		w.slots[0].resumeAt = clock.Nanos()
		ctx.SwapContext(regular)
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
	// Fresh pause accumulator for this request in the executing context's
	// own slot; each context indexes its own entry, so the paused request's
	// accounting is untouched by whatever the preemptive context runs.
	st := &w.slots[ctx.ID()]
	st.pauseNs, st.curClass = 0, class
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
	pause := st.pauseNs
	st.curClass, st.curTag = metrics.ClassLo, savedTag
	w.publish(ctx.ID(), pubIdle, 0, 0)
	m := w.s.metrics
	m.Observe(class, metrics.PhaseExec, w.id, req.FinishedAt-req.StartedAt-pause)
	if pause > 0 {
		m.Observe(class, metrics.PhasePauseTotal, w.id, pause)
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
// is full or Stop has begun.
func (s *Scheduler) SubmitLow(wid int, req *Request) bool {
	req.HighPriority = false
	if req.EnqueuedAt == 0 {
		req.EnqueuedAt = clock.Nanos()
	}
	w := s.workers[wid]
	if s.stopping.Load() || !w.loQ.Push(req) {
		return false
	}
	s.pushed(w)
	return true
}

// pushed follows every successful push: it wakes w if it is parked, or, when
// Stop has begun meanwhile, drains w so the request still completes.
func (s *Scheduler) pushed(w *Worker) {
	if s.stopping.Load() {
		w.drain()
		return
	}
	w.wakeIfParked()
}

// SubmitHighBatch implements batched on-demand preemption (§5): requests are
// distributed round-robin, filling each selected worker's high-priority
// queue as far as possible and sending that worker a single user interrupt
// (under PolicyPreempt). Workers above the starvation threshold are skipped.
// It returns the number of requests accepted; the rest should be retried at
// the next arrival interval. Once Stop has begun it accepts none.
func (s *Scheduler) SubmitHighBatch(reqs []*Request) int {
	if s.stopping.Load() {
		return 0
	}
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
			s.pushed(w)
		}
	}
	return accepted
}
