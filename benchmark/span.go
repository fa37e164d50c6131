package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// Spans are recorded by the benchmark's own wrappers around the calls into
// each layer (the traced pass only). A request's spans live in one reqTrace
// taken from a buffer preallocated per load-generating goroutine; a request is
// handled by one goroutine at a time (client → worker closure → client), each
// hand-off ordered by the queue or channel that carries it, so no span is
// written concurrently.

type spanKind uint8

const (
	spOp         spanKind = iota // root: one foreground operation, due/send → result
	spBgOp                       // root: one background operation (Q2)
	spGenLag                     // due time → the generator's submit call
	spSubmit                     // the SubmitOpts / SubmitHighBatch / SubmitLow call
	spQueueWait                  // submitted → closure starts on a worker
	spExec                       // closure body (every attempt)
	spGet                        // tx.Get inside the closure
	spPut                        // tx.Put inside the closure
	spNewOrder                   // TPCC.NewOrder inside the closure
	spPayment                    // TPCC.Payment inside the closure
	spQ2                         // TPCH.Q2 inside the closure
	spCommitDone                 // closure end → completion seen by the submitter
	spWireGet                    // Client Get round trip
	spWirePut                    // Client Put round trip
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "bg_op", "gen.lag", "sched.submit", "sched.queue_wait", "engine.exec",
	"engine.get", "engine.put", "tpcc.neworder", "tpcc.payment", "tpch.q2",
	"engine.commit_done", "server.get", "server.put",
}

const (
	maxReqSpans    = 12
	traceFileSpans = 20000 // spans written to the trace file; statistics use all
)

type span struct {
	kind       spanKind
	parent     int8 // index in the same reqTrace, -1 for the root
	start, end int64
}

// flagCross marks a cross-shard transfer's trace.
const flagCross = 1

type reqTrace struct {
	id    uint32
	n     int8
	flags uint8
	over  bool // more spans than fit; the request is left out of statistics
	spans [maxReqSpans]span
}

// add appends a span and returns its index (-1 when full). Nil-safe, so
// wrappers need no second branch when spans are off.
func (t *reqTrace) add(kind spanKind, parent int8, start, end int64) int8 {
	if t == nil {
		return -1
	}
	if int(t.n) == maxReqSpans {
		t.over = true
		return -1
	}
	if end < start {
		end = start
	}
	t.spans[t.n] = span{kind: kind, parent: parent, start: start, end: end}
	t.n++
	return t.n - 1
}

// traceBuf is one goroutine's preallocated request-trace buffer.
type traceBuf struct {
	reqs    []reqTrace
	used    int
	every   int // trace one request in every
	seen    int
	base    uint32 // request ids are base + index
	dropped uint64
}

func newTraceBuf(capacity, every int, base uint32) *traceBuf {
	return &traceBuf{reqs: make([]reqTrace, capacity), every: every, base: base}
}

// next returns a fresh trace for this request, or nil when the request is not
// sampled, spans are off (nil buffer), or the buffer is full.
func (b *traceBuf) next() *reqTrace {
	if b == nil {
		return nil
	}
	b.seen++
	if b.seen%b.every != 0 {
		return nil
	}
	if b.used == len(b.reqs) {
		b.dropped++
		return nil
	}
	t := &b.reqs[b.used]
	*t = reqTrace{id: b.base + uint32(b.used)}
	b.used++
	return t
}

// selfTimes fills self[i] with span i's duration minus the part of it that
// its direct children cover (overlapping children are counted once).
func (t *reqTrace) selfTimes(self *[maxReqSpans]int64) {
	type iv struct{ s, e int64 }
	var kids [maxReqSpans]iv
	for i := int8(0); i < t.n; i++ {
		p := t.spans[i]
		k := 0
		for j := int8(0); j < t.n; j++ {
			c := t.spans[j]
			if c.parent != i {
				continue
			}
			s, e := max(c.start, p.start), min(c.end, p.end)
			if e > s {
				kids[k] = iv{s, e}
				k++
			}
		}
		sort.Slice(kids[:k], func(a, b int) bool { return kids[a].s < kids[b].s })
		covered, reach := int64(0), p.start
		for _, c := range kids[:k] {
			if c.e <= reach {
				continue
			}
			covered += c.e - max(c.s, reach)
			reach = c.e
		}
		self[i] = p.end - p.start - covered
	}
}

// spanStats aggregates the traced pass: per span kind the distribution of
// durations and of self times, and the share of root time no child covers.
type spanStats struct {
	dur, self          [numSpanKinds]hist
	single             hist // root durations of the requests not flagged cross-shard
	rootNs, rootSelfNs float64
	requests, dropped  uint64
}

func (s *spanStats) addBuf(b *traceBuf) {
	if b == nil {
		return
	}
	s.dropped += b.dropped
	var self [maxReqSpans]int64
	for i := range b.reqs[:b.used] {
		t := &b.reqs[i]
		if t.over || t.n == 0 {
			s.dropped++
			continue
		}
		s.requests++
		t.selfTimes(&self)
		background := t.spans[0].kind == spBgOp
		for j := int8(0); j < t.n; j++ {
			sp := t.spans[j]
			if background && sp.kind != spBgOp && sp.kind != spQ2 {
				continue // a Q2's queue wait and closure are not the foreground's
			}
			s.dur[sp.kind].record(sp.end - sp.start)
			s.self[sp.kind].record(self[j])
			if sp.parent < 0 && sp.kind == spOp {
				s.rootNs += float64(sp.end - sp.start)
				s.rootSelfNs += float64(self[j])
				if t.flags&flagCross == 0 {
					s.single.record(sp.end - sp.start)
				}
			}
		}
	}
}

// unattributedPct is the share of foreground root-span time not covered by
// any child span.
func (s *spanStats) unattributedPct() float64 {
	if s.rootNs == 0 {
		return 0
	}
	return 100 * s.rootSelfNs / s.rootNs
}

// writeTraceFile writes the first traceFileSpans spans as a JSON array, one
// span per line: request id, span index, parent index, name, start and end in
// nanoseconds since the benchmark's epoch.
func writeTraceFile(path string, bufs []*traceBuf) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	written := 0
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for i := range b.reqs[:b.used] {
			t := &b.reqs[i]
			for j := int8(0); j < t.n && written < traceFileSpans; j++ {
				sp := t.spans[j]
				if written > 0 {
					fmt.Fprintln(w, ",")
				}
				fmt.Fprintf(w, `{"req":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`,
					t.id, j, sp.parent, spanNames[sp.kind], sp.start, sp.end)
				written++
			}
		}
	}
	fmt.Fprintln(w, "\n]")
	return w.Flush()
}
