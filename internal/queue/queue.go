// Package queue provides the bounded lock-free rings PreemptDB workers use as
// per-worker scheduling queues (paper §4.1): a single scheduling thread
// produces transaction requests into each worker's high- and low-priority
// queues, and the worker's contexts consume them.
//
// Two variants are provided. MPMC is a Vyukov-style bounded queue and the one
// the scheduler uses for every queue: any goroutine may submit. SPSC is the
// ring for exactly one producer and one consumer; nothing in the program uses
// it any more, and it stays only because the benchmark ladder prices it
// beside MPMC.
package queue

import (
	"sync/atomic"
)

// SPSC is a bounded single-producer single-consumer ring. Producer methods
// must be called from one goroutine, consumer methods from one goroutine;
// the two sides may run concurrently. Capacity is rounded up to a power of
// two. The zero value is not usable; call NewSPSC.
type SPSC[T any] struct {
	mask uint64
	buf  []slot[T]
	_    [48]byte // keep head/tail on separate cache lines from buf header
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
}

type slot[T any] struct {
	full atomic.Bool
	v    T
}

// NewSPSC returns an SPSC ring holding at least capacity elements.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := nextPow2(capacity)
	return &SPSC[T]{mask: uint64(n - 1), buf: make([]slot[T], n)}
}

func nextPow2(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Push appends v; it reports false when the ring is full.
func (q *SPSC[T]) Push(v T) bool {
	t := q.tail.Load()
	s := &q.buf[t&q.mask]
	if s.full.Load() {
		return false
	}
	s.v = v
	s.full.Store(true)
	q.tail.Store(t + 1)
	return true
}

// Pop removes the oldest element; ok is false when the ring is empty.
func (q *SPSC[T]) Pop() (v T, ok bool) {
	h := q.head.Load()
	s := &q.buf[h&q.mask]
	if !s.full.Load() {
		return v, false
	}
	v = s.v
	var zero T
	s.v = zero // release references for GC
	s.full.Store(false)
	q.head.Store(h + 1)
	return v, true
}

// Len returns the approximate number of queued elements.
func (q *SPSC[T]) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Empty reports whether the ring is (approximately) empty; exact when called
// by the consumer with no concurrent pops.
func (q *SPSC[T]) Empty() bool {
	h := q.head.Load()
	return !q.buf[h&q.mask].full.Load()
}

// Free returns the approximate number of free slots.
func (q *SPSC[T]) Free() int { return q.Cap() - q.Len() }

// MPMC is a bounded multi-producer multi-consumer queue (Dmitry Vyukov's
// bounded MPMC algorithm): each slot carries a sequence number that tickets
// producers and consumers without locks.
type MPMC[T any] struct {
	mask uint64
	// limit is the number of elements the queue holds. It equals len(buf)
	// except for a one-element queue, whose ring has two slots: with a single
	// slot the sequence tickets of "full" and "free" coincide.
	limit uint64
	buf   []mpmcSlot[T]
	_     [40]byte
	head  atomic.Uint64 // consumer ticket
	_     [56]byte
	tail  atomic.Uint64 // producer ticket
}

type mpmcSlot[T any] struct {
	seq atomic.Uint64
	v   T
}

// NewMPMC returns an MPMC queue holding at least capacity elements.
func NewMPMC[T any](capacity int) *MPMC[T] {
	limit := nextPow2(capacity)
	n := max(limit, 2)
	q := &MPMC[T]{mask: uint64(n - 1), limit: uint64(limit), buf: make([]mpmcSlot[T], n)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Push appends v; it reports false when the queue is full.
func (q *MPMC[T]) Push(v T) bool {
	for {
		t := q.tail.Load()
		s := &q.buf[t&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == t:
			// head only grows, so a stale read can only refuse a push that
			// would have fit, never admit one past the limit; a stale t reads
			// as negative and fails the CAS below instead.
			if q.limit <= q.mask && int64(t-q.head.Load()) >= int64(q.limit) {
				return false // full
			}
			if q.tail.CompareAndSwap(t, t+1) {
				s.v = v
				s.seq.Store(t + 1)
				return true
			}
		case seq < t:
			return false // full
		default:
			// Another producer claimed this slot; retry with a fresh tail.
		}
	}
}

// Pop removes the oldest element; ok is false when the queue is empty.
func (q *MPMC[T]) Pop() (v T, ok bool) {
	for {
		h := q.head.Load()
		s := &q.buf[h&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == h+1:
			if q.head.CompareAndSwap(h, h+1) {
				v = s.v
				var zero T
				s.v = zero
				s.seq.Store(h + q.mask + 1)
				return v, true
			}
		case seq <= h:
			return v, false // empty
		default:
			// Another consumer claimed this slot; retry.
		}
	}
}

// Len returns the approximate number of queued elements.
func (q *MPMC[T]) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// Cap returns the queue capacity.
func (q *MPMC[T]) Cap() int { return int(q.limit) }

// Empty reports whether the queue is approximately empty.
func (q *MPMC[T]) Empty() bool { return q.Len() == 0 }

// Free returns the approximate number of free slots.
func (q *MPMC[T]) Free() int { return q.Cap() - q.Len() }
