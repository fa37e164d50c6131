package pcontext

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// Chrome trace-event export: renders tracer snapshots in the JSON schema
// understood by Perfetto (ui.perfetto.dev) and chrome://tracing. Each core
// becomes a process, each context a thread; intervals where a context held
// the core become complete ("X") spans, and interrupt recognitions /
// NPR-deferred deliveries become instant ("i") markers.

// CoreEvents pairs a core id with that core's tracer snapshot.
type CoreEvents struct {
	Core   int
	Events []Event
}

// chromeEvent is one trace-event record. Field names follow the format spec;
// timestamps and durations are microseconds. Id/Cat/BP carry flow events
// ("s"/"t"/"f"), which stitch causally-linked spans across processes.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace converts per-core tracer snapshots into a Chrome trace-event
// JSON document. Timestamps are rebased so the earliest event across all
// cores is t=0.
func ChromeTrace(cores []CoreEvents) ([]byte, error) {
	base := int64(0)
	haveBase := false
	for _, ce := range cores {
		for _, e := range ce.Events {
			if !haveBase || e.At < base {
				base, haveBase = e.At, true
			}
		}
	}
	us := func(at int64) float64 { return float64(at-base) / 1e3 }

	var out []chromeEvent
	for _, ce := range cores {
		if len(ce.Events) == 0 {
			continue
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: ce.Core,
			Args: map[string]any{"name": fmt.Sprintf("core %d", ce.Core)},
		})
		seenCtx := map[int8]bool{}
		thread := func(id int8) {
			if id < 0 || seenCtx[id] {
				return
			}
			seenCtx[id] = true
			role := "regular"
			if id > 0 {
				role = "preemptive"
			}
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: ce.Core, Tid: int(id),
				Args: map[string]any{"name": fmt.Sprintf("ctx%d (%s)", id, role)},
			})
		}

		// Occupancy spans: between consecutive switch events the outgoing
		// context (the switch's From edge) held the core. The tracer ring may
		// have dropped events (wrap, seqlock skip), so resynchronize the
		// running context from each switch's From edge instead of trusting
		// the previous To edge.
		cur := int8(-1)
		curStart := ce.Events[0].At
		emitSpan := func(ctx int8, start, end int64, tag uint64) {
			if ctx < 0 || end < start {
				return
			}
			thread(ctx)
			name := fmt.Sprintf("ctx%d", ctx)
			var args map[string]any
			if tag != 0 {
				name = fmt.Sprintf("txn %d", tag)
				args = map[string]any{"txn": tag}
			}
			d := us(end) - us(start)
			out = append(out, chromeEvent{
				Name: name, Ph: "X", Ts: us(start), Dur: &d,
				Pid: ce.Core, Tid: int(ctx), Args: args,
			})
		}
		lastAt := ce.Events[0].At
		for _, e := range ce.Events {
			lastAt = e.At
			switch e.Kind {
			case EvPassiveSwitch, EvActiveSwitch:
				emitSpan(e.From, curStart, e.At, e.Tag)
				cur, curStart = e.To, e.At
			case EvRecognized, EvSuppressed:
				thread(e.From)
				name := "uintr recognized"
				if e.Kind == EvSuppressed {
					name = "uintr deferred (NPR)"
				}
				var args map[string]any
				if e.Tag != 0 {
					args = map[string]any{"txn": e.Tag}
				}
				out = append(out, chromeEvent{
					Name: name, Ph: "i", Ts: us(e.At), S: "t",
					Pid: ce.Core, Tid: int(e.From), Args: args,
				})
			case EvTxnEnd:
				thread(e.From)
				args := map[string]any{"err": AuxDetail(e.Aux) != 0}
				if e.Tag != 0 {
					args["txn"] = e.Tag
				}
				out = append(out, chromeEvent{
					Name: e.Kind.String(), Ph: "i", Ts: us(e.At), S: "t",
					Pid: ce.Core, Tid: int(e.From), Args: args,
				})
			default:
				if !e.Kind.SpanEnd() {
					break
				}
				// Lifecycle span: the event marks the end, Aux carries the
				// duration.
				thread(e.From)
				d := float64(AuxDuration(e.Aux)) / 1e3
				args := map[string]any{"detail": AuxDetail(e.Aux)}
				if e.Tag != 0 {
					args["txn"] = e.Tag
				}
				out = append(out, chromeEvent{
					Name: e.Kind.String(), Ph: "X", Ts: us(e.At) - d, Dur: &d,
					Pid: ce.Core, Tid: int(e.From), Args: args,
				})
			}
		}
		// Close the trailing occupancy span at the last event time.
		emitSpan(cur, curStart, lastAt, 0)
	}

	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi // metadata first
		}
		return out[i].Ts < out[j].Ts
	})
	return json.MarshalIndent(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"}, "", " ")
}

// shardPidBase is the synthetic process id under which ChromeTraceTxn groups
// per-participant-shard 2PC spans. The scheduler cores keep their own (small)
// pids; shard N's 2PC track renders as process shardPidBase+N.
const shardPidBase = 1000

// ChromeTraceTxn k-way merges per-core tracer snapshots into one
// causally-linked Chrome trace for a single transaction: the admission/queue
// span, the scheduler occupancy span with pause/resume markers, the WAL
// group-commit wait, and the 2PC prepare/decision/resolve legs re-bucketed
// onto one synthetic track per participant shard, stitched together with
// flow events ("s" at txn start → "t" on every 2PC leg → "f" at txn end).
// Core ids must already be globally unique (the DB facade renumbers them).
func ChromeTraceTxn(tag uint64, cores []CoreEvents) ([]byte, error) {
	if tag == 0 {
		return nil, errors.New("chrometrace: zero trace id")
	}
	type tev struct {
		core int
		e    Event
	}
	var evs []tev
	base := int64(0)
	haveBase := false
	for _, ce := range cores {
		for _, e := range ce.Events {
			if e.Tag != tag {
				continue
			}
			evs = append(evs, tev{ce.Core, e})
			start := e.At
			if e.Kind.SpanEnd() {
				start -= AuxDuration(e.Aux)
			}
			if !haveBase || start < base {
				base, haveBase = start, true
			}
		}
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("chrometrace: no events for txn %d (ring wrapped or tracing off)", tag)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].e.At < evs[j].e.At })
	us := func(at int64) float64 { return float64(at-base) / 1e3 }

	var out []chromeEvent
	seenProc := map[int]bool{}
	proc := func(pid int, name string) {
		if seenProc[pid] {
			return
		}
		seenProc[pid] = true
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	seenThread := map[[2]int]bool{}
	thread := func(pid, tid int, name string) {
		k := [2]int{pid, tid}
		if seenThread[k] {
			return
		}
		seenThread[k] = true
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	schedTrack := func(core int, ctx int8) (int, int) {
		proc(core, fmt.Sprintf("core %d", core))
		thread(core, int(ctx), fmt.Sprintf("ctx%d", ctx))
		return core, int(ctx)
	}
	shardTrack := func(shard uint8) (int, int) {
		pid := shardPidBase + int(shard)
		proc(pid, fmt.Sprintf("shard %d (2PC)", shard))
		thread(pid, 0, "prepare/resolve")
		return pid, 0
	}
	flow := func(ph string, pid, tid int, ts float64) {
		out = append(out, chromeEvent{
			Name: "txn-flow", Ph: ph, Cat: "txn", ID: tag,
			Ts: ts, Pid: pid, Tid: tid, BP: "e",
		})
	}
	span := func(name string, pid, tid int, start, end float64, args map[string]any) {
		d := end - start
		if d < 0 {
			d = 0
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "X", Ts: start, Dur: &d, Pid: pid, Tid: tid, Args: args,
		})
	}

	// The scheduler-side execution span: EvTxnStart → EvTxnEnd on the core
	// that ran the transaction (retries stay on one request, hence one pair).
	var startAt, endAt int64 = -1, -1
	for _, te := range evs {
		switch te.e.Kind {
		case EvTxnStart:
			if startAt < 0 {
				startAt = te.e.At
			}
		case EvTxnEnd:
			endAt = te.e.At
		}
	}

	for _, te := range evs {
		e := te.e
		switch e.Kind {
		case EvTxnStart:
			pid, tid := schedTrack(te.core, e.From)
			span("admission+queue", pid, tid, us(e.At-AuxDuration(e.Aux)), us(e.At),
				map[string]any{"txn": tag, "class_hi": AuxDetail(e.Aux) != 0})
			if endAt >= 0 {
				span(fmt.Sprintf("txn %d", tag), pid, tid, us(e.At), us(endAt),
					map[string]any{"txn": tag})
			}
			flow("s", pid, tid, us(e.At))
		case EvTxnEnd:
			pid, tid := schedTrack(te.core, e.From)
			out = append(out, chromeEvent{
				Name: "txn-end", Ph: "i", Ts: us(e.At), S: "t", Pid: pid, Tid: tid,
				Args: map[string]any{"txn": tag, "err": AuxDetail(e.Aux) != 0},
			})
			flow("f", pid, tid, us(e.At))
		case EvWALWait:
			pid, tid := schedTrack(te.core, e.From)
			span("wal group-commit wait", pid, tid, us(e.At-AuxDuration(e.Aux)), us(e.At),
				map[string]any{"txn": tag, "leader": AuxDetail(e.Aux) != 0})
		case EvPrepare, EvResolve, EvDecision:
			pid, tid := shardTrack(AuxDetail(e.Aux))
			span(e.Kind.String(), pid, tid, us(e.At-AuxDuration(e.Aux)), us(e.At),
				map[string]any{"txn": tag, "shard": AuxDetail(e.Aux)})
			flow("t", pid, tid, us(e.At-AuxDuration(e.Aux)))
		case EvPassiveSwitch, EvActiveSwitch:
			// The transaction's context is the From edge of a switch carrying
			// its tag: it was paused (preempted, or yielded cooperatively) here.
			pid, tid := schedTrack(te.core, e.From)
			name := "paused (preempted)"
			if e.Kind == EvActiveSwitch {
				name = "paused (yield)"
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "i", Ts: us(e.At), S: "t", Pid: pid, Tid: tid,
				Args: map[string]any{"txn": tag, "to_ctx": e.To},
			})
		case EvRecognized, EvSuppressed:
			pid, tid := schedTrack(te.core, e.From)
			name := "uintr recognized"
			if e.Kind == EvSuppressed {
				name = "uintr deferred (NPR)"
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "i", Ts: us(e.At), S: "t", Pid: pid, Tid: tid,
				Args: map[string]any{"txn": tag},
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi // metadata first
		}
		return out[i].Ts < out[j].Ts
	})
	return json.MarshalIndent(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"}, "", " ")
}

// ValidateChromeTrace parses a Chrome trace-event JSON document and checks it
// is well-formed: non-empty, every event carries a known phase, durations are
// non-negative, non-metadata timestamps are monotonically non-decreasing, and
// flow events are coherent — every flow id that starts ("s") also finishes
// ("f"), with the start at or before every step and the finish.
func ValidateChromeTrace(data []byte) error {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("chrometrace: parse: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return errors.New("chrometrace: no events")
	}
	type flowState struct {
		starts, finishes int
		startTs          float64
	}
	flows := map[uint64]*flowState{}
	flowAt := func(id uint64) *flowState {
		f := flows[id]
		if f == nil {
			f = &flowState{}
			flows[id] = f
		}
		return f
	}
	prev := float64(0)
	first := true
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X", "i":
		case "s", "t", "f":
			if e.ID == 0 {
				return fmt.Errorf("chrometrace: event %d: flow event without id", i)
			}
			f := flowAt(e.ID)
			switch e.Ph {
			case "s":
				f.starts++
				f.startTs = e.Ts
			case "t":
				if f.starts == 0 {
					return fmt.Errorf("chrometrace: event %d: flow step for id %d before its start", i, e.ID)
				}
			case "f":
				if f.starts == 0 {
					return fmt.Errorf("chrometrace: event %d: flow finish for id %d before its start", i, e.ID)
				}
				if e.Ts < f.startTs {
					return fmt.Errorf("chrometrace: event %d: flow id %d finishes at %g before start %g", i, e.ID, e.Ts, f.startTs)
				}
				f.finishes++
			}
		default:
			return fmt.Errorf("chrometrace: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Dur != nil && *e.Dur < 0 {
			return fmt.Errorf("chrometrace: event %d: negative duration %g", i, *e.Dur)
		}
		if !first && e.Ts < prev {
			return fmt.Errorf("chrometrace: event %d: ts %g < previous %g", i, e.Ts, prev)
		}
		prev, first = e.Ts, false
	}
	for id, f := range flows {
		if f.starts == 0 {
			return fmt.Errorf("chrometrace: flow id %d has steps but no start", id)
		}
		if f.finishes == 0 {
			return fmt.Errorf("chrometrace: flow id %d starts but never finishes", id)
		}
	}
	return nil
}
