// Package bench contains the experiment harness that regenerates every
// figure in the paper's evaluation (§6). It follows the paper's benchmark
// driver design: workload generation is decoupled from execution, with a
// dedicated scheduling thread that, at every arrival interval, refills each
// worker's low-priority queue (Q2) and dispatches a batch of high-priority
// TPC-C transactions (NewOrder, Payment) round-robin — sending user
// interrupts under the PreemptDB policy.
//
// Latency is measured end-to-end from generation (EnqueuedAt) to completion;
// scheduling latency from generation to first execution.
package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"preemptdb/internal/clock"
	"preemptdb/internal/engine"
	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
	"preemptdb/internal/sched"
	"preemptdb/internal/tpcc"
	"preemptdb/internal/tpch"
)

// Options parameterizes one experiment run. Zero values take defaults sized
// for a small host (the paper used 16 workers on a 32-core Xeon; shapes, not
// absolute numbers, are the reproduction target).
type Options struct {
	Workers             int           // default 4
	Duration            time.Duration // measurement window; default 3s
	ArrivalInterval     time.Duration // default 1ms (§6.1)
	HiQueueSize         int           // default 4
	LoQueueSize         int           // default 1
	YieldInterval       uint64        // default 10000 (§6.1)
	StarvationThreshold float64       // default 100 (≈ disabled, §6.1)
	HiBatchPerInterval  int           // default Workers*HiQueueSize (§6.1)

	TPCC tpcc.ScaleConfig
	TPCH tpch.ScaleConfig

	// VacuumInterval enables the engine's background incremental vacuum for
	// the run; long experiments with update-heavy mixes keep version chains
	// short without a stop-the-world sweep between data points. Zero keeps
	// the seed behavior (manual Vacuum between runs).
	VacuumInterval time.Duration

	Out io.Writer // table output; default io.Discard
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		// One simulated core per spare physical CPU: an interrupt is only
		// recognized while its target goroutine is on-CPU, so oversubscribing
		// physical CPUs inflates delivery latency with Go-scheduler quanta
		// rather than anything the paper measures. (The paper pins 16 workers
		// + 1 scheduler on 32 real cores — also no oversubscription.)
		o.Workers = runtime.NumCPU() - 1
		if o.Workers < 1 {
			o.Workers = 1
		}
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Duration == 0 {
		o.Duration = 3 * time.Second
	}
	if o.ArrivalInterval == 0 {
		o.ArrivalInterval = time.Millisecond
	}
	if o.HiQueueSize == 0 {
		o.HiQueueSize = 4
	}
	if o.LoQueueSize == 0 {
		o.LoQueueSize = 1
	}
	if o.YieldInterval == 0 {
		o.YieldInterval = 10000
	}
	if o.StarvationThreshold == 0 {
		o.StarvationThreshold = 100
	}
	if o.HiBatchPerInterval == 0 {
		// The paper uses Workers×HiQueueSize (64 for 16 workers) per 1 ms on
		// a 32-core Xeon, a light high-priority load relative to capacity.
		// On this simulated substrate a NewOrder costs ~100µs of wall time,
		// so 2 per worker per millisecond reproduces the same ~10–20%
		// high-priority utilization.
		o.HiBatchPerInterval = o.Workers * 2
	}
	if o.TPCC.Warehouses == 0 {
		// Paper: as many warehouses as worker threads.
		o.TPCC = tpcc.ScaleConfig{Warehouses: o.Workers, Districts: 4, Customers: 64, Items: 2000}
	}
	if o.TPCH.Parts == 0 {
		// Sized so one Q2 runs for tens of milliseconds — several hundred
		// times a NewOrder, as in the paper's mix.
		o.TPCH = tpch.ScaleConfig{Parts: 60000, Suppliers: 400}
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Fixture is a loaded engine shared by several runs of one experiment so the
// (expensive) load happens once per figure, not once per data point.
type Fixture struct {
	Engine *engine.Engine
	TPCC   *tpcc.Client
	TPCH   *tpch.Client
	opts   Options
}

// NewFixture loads TPC-C and the TPC-H subset into one engine.
func NewFixture(opt Options) (*Fixture, error) {
	opt = opt.withDefaults()
	e := engine.New(engine.Config{VacuumInterval: opt.VacuumInterval})
	tpcc.CreateSchema(e)
	tpch.CreateSchema(e)
	ccCfg, err := tpcc.Load(e, opt.TPCC)
	if err != nil {
		return nil, fmt.Errorf("bench: tpcc load: %w", err)
	}
	hCfg, err := tpch.Load(e, opt.TPCH)
	if err != nil {
		return nil, fmt.Errorf("bench: tpch load: %w", err)
	}
	return &Fixture{
		Engine: e,
		TPCC:   tpcc.NewClient(e, ccCfg),
		TPCH:   tpch.NewClient(e, hCfg),
		opts:   opt,
	}, nil
}

// Options returns the fixture's effective options.
func (f *Fixture) Options() Options { return f.opts }

// MixedResult aggregates one mixed-workload run.
type MixedResult struct {
	Policy string

	// End-to-end latency (generation → completion).
	Q2, NewOrder, Payment metrics.Summary
	// Hi is the end-to-end latency across both high-priority kinds
	// (NewOrder + Payment merged exactly, bucket-wise).
	Hi metrics.Summary
	// Scheduling latency (generation → first execution).
	Q2Sched, NewOrderSched, PaymentSched metrics.Summary

	// Throughput in transactions/second over the measurement window.
	Q2TPS, NewOrderTPS, PaymentTPS float64

	InterruptsSent  uint64
	StarvationSkips uint64
	PassiveSwitches uint64
	ActiveSwitches  uint64
	DroppedHi       uint64 // generated but never admitted before the run ended

	// ShedExpired / ShedCanceled count queued requests the workers dropped
	// at dispatch: deadline already passed / canceled by the submitter.
	// Non-zero only when HiDeadline is set (or requests are canceled).
	ShedExpired  uint64
	ShedCanceled uint64
	// HiDeadlineMisses counts high-priority requests that executed but
	// finished with a lifecycle error (deadline tripped mid-flight).
	HiDeadlineMisses uint64
}

// collector accumulates latencies; sharded per worker would be overkill at
// single-host rates, so a mutex suffices.
type collector struct {
	mu                       sync.Mutex
	q2, newOrder, payment    metrics.Histogram
	q2S, newOrderS, paymentS metrics.Histogram
	q2N, newOrderN, paymentN uint64
}

type txKind uint8

const (
	kindQ2 txKind = iota
	kindNewOrder
	kindPayment
)

func (c *collector) done(kind txKind, r *sched.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kind {
	case kindQ2:
		c.q2.Record(r.Latency())
		c.q2S.Record(r.SchedulingLatency())
		c.q2N++
	case kindNewOrder:
		c.newOrder.Record(r.Latency())
		c.newOrderS.Record(r.SchedulingLatency())
		c.newOrderN++
	case kindPayment:
		c.payment.Record(r.Latency())
		c.paymentS.Record(r.SchedulingLatency())
		c.paymentN++
	}
}

// seedCounter hands every transaction context a distinct RNG stream.
var seedCounter atomic.Uint64

// ctxRand returns the context's CLS RNG, creating it on first use.
func ctxRand(ctx *pcontext.Context) *rng.Rand {
	if ctx == nil {
		return rng.New(seedCounter.Add(1) * 0x9e3779b97f4a7c15)
	}
	cls := ctx.CLS()
	if r, ok := cls.Get(pcontext.SlotRand).(*rng.Rand); ok {
		return r
	}
	r := rng.New(seedCounter.Add(1) * 0x9e3779b97f4a7c15)
	cls.Set(pcontext.SlotRand, r)
	return r
}

// MixedConfig are the per-run knobs RunMixed accepts on top of the fixture.
type MixedConfig struct {
	Policy              sched.Policy
	Workers             int
	Duration            time.Duration
	ArrivalInterval     time.Duration
	HiQueueSize         int
	YieldInterval       uint64
	StarvationThreshold float64
	HiBatchPerInterval  int
	// LoQueueSize overrides the fixture's low-priority queue depth.
	LoQueueSize int
	// HandcraftedYieldEvery enables the workload-level Q2 yield point (the
	// paper uses every 1000 nested blocks) when > 0.
	HandcraftedYieldEvery int
	// DisableHiTraffic runs Q2-only (used by overhead probes).
	DisableHiTraffic bool
	// PingEveryInterval sends an empty interrupt to every worker at each
	// arrival interval (fig8's overhead measurement).
	PingEveryInterval bool
	// HiDeadline, when > 0, stamps every high-priority request with an
	// absolute deadline of arrival + HiDeadline: requests still queued past
	// it are shed at dispatch, and running ones unwind at the next poll.
	HiDeadline time.Duration
}

func (m MixedConfig) withDefaults(opt Options) MixedConfig {
	if m.Workers == 0 {
		m.Workers = opt.Workers
	}
	if m.Duration == 0 {
		m.Duration = opt.Duration
	}
	if m.ArrivalInterval == 0 {
		m.ArrivalInterval = opt.ArrivalInterval
	}
	if m.HiQueueSize == 0 {
		m.HiQueueSize = opt.HiQueueSize
	}
	if m.YieldInterval == 0 {
		m.YieldInterval = opt.YieldInterval
	}
	if m.StarvationThreshold == 0 {
		m.StarvationThreshold = opt.StarvationThreshold
	}
	if m.HiBatchPerInterval == 0 {
		m.HiBatchPerInterval = m.Workers * m.HiQueueSize
	}
	if m.LoQueueSize == 0 {
		m.LoQueueSize = opt.LoQueueSize
	}
	return m
}

// RunMixed executes the paper's mixed workload (§6.1): low-priority Q2 per
// worker plus batched high-priority NewOrder/Payment arrivals, under the
// given policy, and reports latency and throughput.
func (f *Fixture) RunMixed(cfg MixedConfig) MixedResult {
	cfg = cfg.withDefaults(f.opts)
	s := sched.New(sched.Config{
		Policy:              cfg.Policy,
		Workers:             cfg.Workers,
		HiQueueSize:         cfg.HiQueueSize,
		LoQueueSize:         cfg.LoQueueSize,
		YieldInterval:       cfg.YieldInterval,
		StarvationThreshold: cfg.StarvationThreshold,
	})
	col := &collector{}
	warehouses := f.TPCC.Scale().Warehouses

	q2Work := func(ctx *pcontext.Context) error {
		r := ctxRand(ctx)
		_, err := f.TPCH.Q2(ctx, tpch.RandomQ2Params(r), cfg.HandcraftedYieldEvery)
		return err
	}
	newQ2Request := func() *sched.Request {
		req := &sched.Request{Work: q2Work}
		req.OnDone = func(r *sched.Request) { col.done(kindQ2, r) }
		return req
	}
	newHiRequest := func(gen *rng.Rand) *sched.Request {
		kind := kindNewOrder
		if gen.Bool(0.5) {
			kind = kindPayment
		}
		w := uint32(gen.IntRange(1, warehouses))
		req := &sched.Request{}
		if kind == kindNewOrder {
			req.Work = func(ctx *pcontext.Context) error {
				err := f.TPCC.NewOrder(ctx, ctxRand(ctx), w)
				if errors.Is(err, tpcc.ErrUserAbort) {
					return nil // expected 1% rollback
				}
				return err
			}
		} else {
			req.Work = func(ctx *pcontext.Context) error {
				return f.TPCC.Payment(ctx, ctxRand(ctx), w)
			}
		}
		req.OnDone = func(r *sched.Request) { col.done(kind, r) }
		return req
	}
	var hiMisses atomic.Uint64
	if cfg.HiDeadline > 0 {
		// Lifecycle-failed requests don't enter the latency histograms: a
		// shed request never ran, and a mid-flight miss produced no result.
		// They are accounted separately (ShedExpired / HiDeadlineMisses).
		base := newHiRequest
		newHiRequest = func(gen *rng.Rand) *sched.Request {
			req := base(gen)
			inner := req.OnDone
			req.OnDone = func(r *sched.Request) {
				if errors.Is(r.Err, pcontext.ErrDeadlineExceeded) || errors.Is(r.Err, pcontext.ErrCanceled) {
					if r.StartedAt != r.FinishedAt {
						hiMisses.Add(1) // executed but unwound mid-flight
					}
					return
				}
				inner(r)
			}
			return req
		}
	}

	s.Start()
	start := clock.Nanos()
	deadline := start + int64(cfg.Duration)
	gen := rng.New(0xd1e5e1 + uint64(cfg.Policy))
	var dropped uint64

	ticker := time.NewTicker(cfg.ArrivalInterval)
	lastTick := clock.Nanos()
	for clock.Nanos() < deadline {
		// Refill low-priority queues: one Q2 per worker slot.
		for wid := 0; wid < cfg.Workers; wid++ {
			for s.SubmitLow(wid, newQ2Request()) {
			}
		}
		if !cfg.DisableHiTraffic {
			// Generate this interval's batch, stamped with one arrival time
			// (the paper's "same start timestamp"). Requests that do not fit
			// the queues before the next interval are discarded — §6.1's
			// driver moves a batch "until the batch is depleted or the next
			// arrival interval passes".
			//
			// On an oversubscribed host the generator goroutine can be
			// descheduled across several intervals; scale the batch by the
			// intervals actually elapsed (capped) so the offered *rate*
			// matches the configuration — the paper's generator owns a
			// dedicated core and never falls behind.
			now := clock.Nanos()
			intervals := int((now - lastTick) / int64(cfg.ArrivalInterval))
			if intervals < 1 {
				intervals = 1
			}
			if intervals > 16 {
				intervals = 16
			}
			lastTick = now
			batch := make([]*sched.Request, cfg.HiBatchPerInterval*intervals)
			for i := range batch {
				batch[i] = newHiRequest(gen)
				batch[i].EnqueuedAt = now
				if cfg.HiDeadline > 0 {
					batch[i].Deadline = now + int64(cfg.HiDeadline)
				}
			}
			n := s.SubmitHighBatch(batch)
			dropped += uint64(len(batch) - n)
		}
		if cfg.PingEveryInterval {
			s.PingAll()
		}
		<-ticker.C
	}
	ticker.Stop()
	elapsed := time.Duration(clock.Nanos() - start)
	// Give in-flight transactions a moment to finish, then stop.
	time.Sleep(50 * time.Millisecond)
	s.Stop()

	res := MixedResult{
		Policy:           cfg.Policy.String(),
		InterruptsSent:   s.InterruptsSent(),
		StarvationSkips:  s.StarvationSkips(),
		DroppedHi:        dropped,
		ShedExpired:      s.ShedExpired(),
		ShedCanceled:     s.ShedCanceled(),
		HiDeadlineMisses: hiMisses.Load(),
	}
	for _, w := range s.Workers() {
		for i := 0; i < w.Core().NumContexts(); i++ {
			tcb := w.Core().Context(i).TCB()
			res.PassiveSwitches += tcb.PassiveSwitches()
			res.ActiveSwitches += tcb.ActiveSwitches()
		}
	}
	col.mu.Lock()
	res.Q2 = col.q2.Summarize()
	res.NewOrder = col.newOrder.Summarize()
	res.Payment = col.payment.Summarize()
	var hi metrics.Histogram
	hi.Merge(&col.newOrder)
	hi.Merge(&col.payment)
	res.Hi = hi.Summarize()
	res.Q2Sched = col.q2S.Summarize()
	res.NewOrderSched = col.newOrderS.Summarize()
	res.PaymentSched = col.paymentS.Summarize()
	sec := elapsed.Seconds()
	res.Q2TPS = float64(col.q2N) / sec
	res.NewOrderTPS = float64(col.newOrderN) / sec
	res.PaymentTPS = float64(col.paymentN) / sec
	col.mu.Unlock()
	return res
}
