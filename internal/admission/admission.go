// Package admission implements the admission-control component that feeds
// PreemptDB's scheduling thread (paper §4.1 mentions the scheduler obtaining
// transactions "from an admission control component"). It combines a
// token-bucket arrival-rate limit with an in-flight concurrency cap, so an
// open-loop client flood is shaped into the bounded stream the scheduler's
// queues are sized for.
package admission

import (
	"math"
	"sync"
	"sync/atomic"

	"preemptdb/internal/clock"
)

// Controller shapes an incoming request stream. The zero value admits
// nothing; construct with New. Safe for concurrent use.
type Controller struct {
	mu     sync.Mutex
	tokens float64
	last   int64 // clock.Nanos of the previous refill

	rate  float64 // tokens per second; <= 0 means unlimited rate
	burst float64

	maxInFlight int64 // <= 0 means unlimited concurrency
	inFlight    atomic.Int64

	// queueDelayBits is the EWMA of observed scheduling latency (nanoseconds,
	// stored as float64 bits and updated by CAS). AdmitDeadline uses it to
	// shed requests whose deadline is certain to be missed before they would
	// even reach a worker.
	queueDelayBits   atomic.Uint64
	deadlineRejected atomic.Uint64
}

// queueDelayAlpha weights new queue-delay observations into the EWMA. 0.2
// tracks load shifts within a handful of requests without jittering on a
// single outlier.
const queueDelayAlpha = 0.2

// New returns a controller admitting up to rate requests/second with the
// given burst, and at most maxInFlight admitted-but-unreleased requests.
// Pass rate <= 0 for no rate limit and maxInFlight <= 0 for no concurrency
// cap.
func New(rate float64, burst int, maxInFlight int) *Controller {
	if burst < 1 {
		burst = 1
	}
	return &Controller{
		tokens:      float64(burst),
		last:        clock.Nanos(),
		rate:        rate,
		burst:       float64(burst),
		maxInFlight: int64(maxInFlight),
	}
}

// Admit reports whether one request may enter the system. Every admitted
// request must eventually call Release.
func (c *Controller) Admit() bool {
	if c.maxInFlight > 0 {
		if c.inFlight.Add(1) > c.maxInFlight {
			c.inFlight.Add(-1)
			return false
		}
	}
	if c.rate > 0 && !c.takeToken() {
		if c.maxInFlight > 0 {
			c.inFlight.Add(-1)
		}
		return false
	}
	return true
}

func (c *Controller) takeToken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := clock.Nanos()
	elapsed := float64(now-c.last) / 1e9
	c.last = now
	c.tokens += elapsed * c.rate
	if c.tokens > c.burst {
		c.tokens = c.burst
	}
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// Release returns an in-flight slot; call once per admitted request when it
// completes (or is dropped downstream).
func (c *Controller) Release() {
	if c.maxInFlight > 0 {
		if n := c.inFlight.Add(-1); n < 0 {
			panic("admission: Release without matching Admit")
		}
	}
}

// InFlight returns the number of admitted, unreleased requests.
func (c *Controller) InFlight() int64 { return c.inFlight.Load() }

// ObserveQueueDelay feeds one observed scheduling latency (enqueue→start, in
// nanoseconds) into the controller's queue-delay estimate.
func (c *Controller) ObserveQueueDelay(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	for {
		old := c.queueDelayBits.Load()
		est := math.Float64frombits(old)
		if old == 0 {
			est = float64(nanos) // first sample seeds the estimate
		} else {
			est += queueDelayAlpha * (float64(nanos) - est)
		}
		if c.queueDelayBits.CompareAndSwap(old, math.Float64bits(est)) {
			return
		}
	}
}

// QueueDelayEstimate returns the current queue-delay EWMA in nanoseconds
// (0 until the first observation).
func (c *Controller) QueueDelayEstimate() int64 {
	return int64(math.Float64frombits(c.queueDelayBits.Load()))
}

// AdmitDeadline is Admit for a request carrying an absolute deadline
// (clock.Nanos; 0 means none): when the observed queue delay implies the
// deadline will be missed before the request even starts, it is shed here —
// cheaper than letting the scheduler drop it at dispatch, and it keeps the
// doomed request from occupying queue capacity. Deadline sheds are counted
// in DeadlineRejected.
func (c *Controller) AdmitDeadline(deadline int64) bool {
	if deadline != 0 && clock.Nanos()+c.QueueDelayEstimate() > deadline {
		c.deadlineRejected.Add(1)
		return false
	}
	return c.Admit()
}

// DeadlineRejected returns how many requests were shed because their
// deadline could not be met given the observed queue delay.
func (c *Controller) DeadlineRejected() uint64 { return c.deadlineRejected.Load() }
