package pcontext

import (
	"fmt"
	"sync/atomic"

	"preemptdb/internal/clock"
)

// Execution tracing. A Tracer records scheduling events (context switches,
// interrupt recognitions, non-preemptible suppressions) into a fixed-size
// ring per core, cheaply enough to stay on during benchmarks. Snapshots
// render timelines like the paper's Figure 2 — who held the core when, and
// where preemptions landed.

// EventKind tags a trace event.
type EventKind uint8

// Trace event kinds. The first four are scheduling-substrate events recorded
// by the core itself; the rest are transaction lifecycle spans recorded by
// higher layers (scheduler, engine, 2PC coordinator) through
// Context.TraceEvent, carrying a packed Aux payload (see SpanAux).
const (
	EvPassiveSwitch EventKind = iota + 1 // interrupt-driven switch (from → to)
	EvActiveSwitch                       // voluntary SwapContext (from → to)
	EvRecognized                         // interrupt recognized (handler entry)
	EvSuppressed                         // recognition deferred by an NPR
	EvTxnStart                           // txn began executing; aux = queue wait, detail = class (1 hi)
	EvTxnEnd                             // txn finished; aux = exec time, detail = outcome (1 err)
	EvWALWait                            // group-commit WAL wait ended; aux = wait, detail = leader (1)
	EvPrepare                            // 2PC prepare leg done; aux = duration, detail = participant shard
	EvResolve                            // 2PC resolve leg done; aux = duration, detail = participant shard
	EvDecision                           // 2PC decision record durable; aux = duration, detail = coordinator shard
)

func (k EventKind) String() string {
	switch k {
	case EvPassiveSwitch:
		return "preempt"
	case EvActiveSwitch:
		return "swap"
	case EvRecognized:
		return "uintr"
	case EvSuppressed:
		return "npr-defer"
	case EvTxnStart:
		return "txn-start"
	case EvTxnEnd:
		return "txn-end"
	case EvWALWait:
		return "wal-wait"
	case EvPrepare:
		return "2pc-prepare"
	case EvResolve:
		return "2pc-resolve"
	case EvDecision:
		return "2pc-decision"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// SpanEnd reports whether k marks the end of a measured span (its Aux carries
// the span duration, so the span started AuxDuration before Event.At).
func (k EventKind) SpanEnd() bool {
	switch k {
	case EvTxnStart, EvWALWait, EvPrepare, EvResolve, EvDecision:
		return true
	}
	return false
}

// Event is one trace record.
type Event struct {
	At   int64     `json:"at"`  // clock.Nanos
	Tag  uint64    `json:"tag"` // transaction annotation (trace id; 0 = none)
	Kind EventKind `json:"kind"`
	From int8      `json:"from"` // context ids (-1 when not applicable)
	To   int8      `json:"to"`
	Aux  uint32    `json:"aux,omitempty"` // span payload; see SpanAux
}

// SpanAux packs a span payload for the lifecycle event kinds: the low 24 bits
// hold the span duration in microseconds (saturating), the high 8 bits a
// kind-specific detail byte (class, outcome, leader flag, or shard id).
func SpanAux(durNanos int64, detail uint8) uint32 {
	us := durNanos / 1e3
	if us < 0 {
		us = 0
	}
	if us > 0xFFFFFF {
		us = 0xFFFFFF
	}
	return uint32(detail)<<24 | uint32(us)
}

// AuxDuration unpacks the span duration (nanoseconds, µs resolution).
func AuxDuration(aux uint32) int64 { return int64(aux&0xFFFFFF) * 1e3 }

// AuxDetail unpacks the kind-specific detail byte.
func AuxDetail(aux uint32) uint8 { return uint8(aux >> 24) }

// slot is one ring entry, laid out as a per-slot seqlock: the writer
// invalidates seq, stores the payload words, then publishes seq as the
// event's 1-based sequence number. A reader accepts a slot only when seq
// reads the expected sequence before AND after loading the payload — any
// concurrent overwrite passes through seq=0 or a different sequence and is
// detected. All fields are atomics, so snapshots under concurrent writers
// are race-clean as well as tear-free.
type slot struct {
	seq  atomic.Uint64 // eventIndex+1 when valid; 0 while being written
	at   atomic.Int64
	tag  atomic.Uint64
	meta atomic.Uint64 // aux<<24 | kind<<16 | (from+128)<<8 | (to+128)
}

func packMeta(kind EventKind, from, to int8, aux uint32) uint64 {
	return uint64(aux)<<24 | uint64(kind)<<16 | uint64(uint8(from)+128)<<8 | uint64(uint8(to)+128)
}

func unpackMeta(m uint64) (kind EventKind, from, to int8, aux uint32) {
	return EventKind(uint8(m >> 16)), int8(uint8(m>>8) - 128), int8(uint8(m) - 128), uint32(m >> 24)
}

// Tracer is a fixed-capacity ring of events. Writers are the core's contexts
// (serialized by the core); readers may snapshot concurrently, even while the
// ring wraps mid-snapshot. A snapshot has bounded staleness: a slot
// overwritten (or mid-write) while it is being read is skipped rather than
// returned torn, so the result is always a consistent subset of the retained
// window.
type Tracer struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// NewTracer returns a tracer holding the most recent `capacity` events
// (rounded up to a power of two).
func NewTracer(capacity int) *Tracer {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{slots: make([]slot, n), mask: uint64(n - 1)}
}

// record appends one event.
func (t *Tracer) record(kind EventKind, from, to int8, tag uint64) {
	t.recordAux(kind, from, to, tag, 0)
}

// recordAux appends one event carrying a packed span payload. Allocation-free:
// four atomic stores into a preallocated slot.
func (t *Tracer) recordAux(kind EventKind, from, to int8, tag uint64, aux uint32) {
	if t == nil {
		return
	}
	i := t.next.Add(1) - 1
	s := &t.slots[i&t.mask]
	s.seq.Store(0) // invalidate while the payload is inconsistent
	s.at.Store(clock.Nanos())
	s.tag.Store(tag)
	s.meta.Store(packMeta(kind, from, to, aux))
	s.seq.Store(i + 1) // publish
}

// Len returns the number of events recorded (cumulative, may exceed
// capacity).
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// Snapshot returns the retained events in chronological order. Safe against
// concurrent writers: slots that wrap (or are mid-write) during the snapshot
// are skipped, never returned torn.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	size := uint64(len(t.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		s := &t.slots[i&t.mask]
		if s.seq.Load() != i+1 {
			continue // not yet published, or already overwritten
		}
		at := s.at.Load()
		tag := s.tag.Load()
		meta := s.meta.Load()
		if s.seq.Load() != i+1 {
			continue // overwritten while reading: payload may be torn
		}
		kind, from, to, aux := unpackMeta(meta)
		out = append(out, Event{At: at, Tag: tag, Kind: kind, From: from, To: to, Aux: aux})
	}
	return out
}

// TraceEvent records a transaction lifecycle event on the context's core ring,
// tagged with the context's current trace id. Nil-safe and allocation-free;
// a no-op on detached contexts or when the core has no tracer attached, so
// callers on hot paths need no enablement check of their own.
func (x *Context) TraceEvent(kind EventKind, aux uint32) {
	if x == nil || x.core == nil {
		return
	}
	x.core.tracer.recordAux(kind, int8(x.id), -1, x.traceTag, aux)
}

// SetTracer attaches a tracer to the core (nil detaches). Install before
// Start, or accept missing events around the installation instant.
func (c *Core) SetTracer(t *Tracer) { c.tracer = t }

// Tracer returns the attached tracer (nil if none).
func (c *Core) Tracer() *Tracer { return c.tracer }
