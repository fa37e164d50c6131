package metrics

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Class is the scheduling priority class a latency observation belongs to.
type Class uint8

// Priority classes (matching the scheduler's two-level design).
const (
	ClassLo Class = iota
	ClassHi
	NumClasses
)

func (c Class) String() string {
	if c == ClassHi {
		return "hi"
	}
	return "lo"
}

// Phase names one component of a transaction's end-to-end latency. The
// decomposition follows the request's life: admission-queue wait, execution
// (on-core time, pauses excluded), preempted-pause time (per pause and per
// transaction), resume latency (preemptive context's hand-back to the paused
// context), group-commit/WAL wait, and the end-to-end total.
type Phase uint8

// Latency phases.
const (
	// PhaseQueueWait is EnqueuedAt → StartedAt: time spent in the admission
	// queue before a worker picked the request up.
	PhaseQueueWait Phase = iota
	// PhaseExec is StartedAt → FinishedAt minus preempted-pause time: the
	// request's own on-core execution time.
	PhaseExec
	// PhasePause is one preempted pause: from the switch away from the paused
	// context until it holds the core again. Recorded once per pause.
	PhasePause
	// PhasePauseTotal is the sum of a request's pauses, recorded once per
	// request that was paused at least once (unpaused requests do not record,
	// so the count is "requests ever paused").
	PhasePauseTotal
	// PhaseResume is the hand-back latency: from the preemptive context's
	// decision to return the core until the paused context actually runs.
	PhaseResume
	// PhaseWALWait is the group-commit wait: a leader's batch write+sync, or
	// a follower's park until its batch is durable.
	PhaseWALWait
	// PhaseTotal is EnqueuedAt → FinishedAt: the end-to-end commit latency the
	// paper's figures report.
	PhaseTotal
	NumPhases
)

// phaseNames are the stable exposition names (JSON tags, Prometheus labels).
var phaseNames = [NumPhases]string{
	"queue_wait", "exec", "pause", "pause_total", "resume", "wal_wait", "total",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Registry is the always-on latency store shared by the scheduler and the
// engine: one ConcurrentHistogram per (class, phase) plus one for uintr
// delivery latency (SendUIPI post → handler recognition), and the per-class
// SLO watermark with its breach count. Counters live elsewhere (the facade's
// Stats table). A nil *Registry is inert, so instrumented code never branches
// on configuration.
type Registry struct {
	hists    [NumClasses][NumPhases]ConcurrentHistogram
	delivery ConcurrentHistogram

	// slo[c] is the per-class end-to-end latency SLO target in nanoseconds
	// (0 = none); sloBreaches[c] counts PhaseTotal observations that exceeded
	// it. breachFn, when installed, is invoked inline (on the recording
	// goroutine) for every breach — it must be lock-free and non-blocking,
	// e.g. a non-blocking channel send waking a flight recorder.
	slo         [NumClasses]atomic.Int64
	sloBreaches [NumClasses]atomic.Uint64
	breachFn    atomic.Pointer[func(Class, int64)]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Observe records one latency sample for (class, phase). hint spreads
// concurrent writers across stripes (pass the worker/core id). End-to-end
// (PhaseTotal) samples additionally feed the SLO breach detector: an atomic
// load against the class watermark, and on breach a counter bump plus the
// installed hook — nothing on the non-breach path beyond the one load.
func (r *Registry) Observe(c Class, p Phase, hint int, v int64) {
	if r == nil {
		return
	}
	r.hists[c][p].Record(hint, v)
	if p == PhaseTotal {
		if slo := r.slo[c].Load(); slo > 0 && v > slo {
			r.sloBreaches[c].Add(1)
			if fn := r.breachFn.Load(); fn != nil {
				(*fn)(c, v)
			}
		}
	}
}

// SetSLO installs the per-class end-to-end latency target (nanoseconds; 0
// clears it). Safe at any time.
func (r *Registry) SetSLO(c Class, nanos int64) {
	if r == nil {
		return
	}
	r.slo[c].Store(nanos)
}

// SLO returns the class's end-to-end latency target (0 = none).
func (r *Registry) SLO(c Class) int64 {
	if r == nil {
		return 0
	}
	return r.slo[c].Load()
}

// SetBreachHook installs fn to run inline on every SLO breach (nil clears).
// fn must be lock-free and non-blocking: it runs on the worker goroutine that
// recorded the sample.
func (r *Registry) SetBreachHook(fn func(Class, int64)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.breachFn.Store(nil)
		return
	}
	r.breachFn.Store(&fn)
}

// SLOBreaches returns the class's cumulative breach count.
func (r *Registry) SLOBreaches(c Class) uint64 {
	if r == nil {
		return 0
	}
	return r.sloBreaches[c].Load()
}

// ObserveDelivery records one uintr delivery-latency sample.
func (r *Registry) ObserveDelivery(hint int, v int64) {
	if r == nil {
		return
	}
	r.delivery.Record(hint, v)
}

// Phase returns the histogram for (class, phase) — snapshot/inspection use.
func (r *Registry) Phase(c Class, p Phase) *ConcurrentHistogram {
	if r == nil {
		return nil
	}
	return &r.hists[c][p]
}

// Delivery returns the uintr delivery-latency histogram.
func (r *Registry) Delivery() *ConcurrentHistogram {
	if r == nil {
		return nil
	}
	return &r.delivery
}

// PhaseSummaries is the per-class latency decomposition: one Summary per
// phase, in nanoseconds.
type PhaseSummaries struct {
	QueueWait  Summary `json:"queue_wait"`
	Exec       Summary `json:"exec"`
	Pause      Summary `json:"pause"`
	PauseTotal Summary `json:"pause_total"`
	Resume     Summary `json:"resume"`
	WALWait    Summary `json:"wal_wait"`
	Total      Summary `json:"total"`
}

// byPhase exposes the summaries positionally, mirroring the Phase constants.
func (ps *PhaseSummaries) byPhase() [NumPhases]*Summary {
	return [NumPhases]*Summary{
		&ps.QueueWait, &ps.Exec, &ps.Pause, &ps.PauseTotal,
		&ps.Resume, &ps.WALWait, &ps.Total,
	}
}

// RegistrySnapshot is a point-in-time view of a Registry's latency
// histograms, JSON-serializable (preemptdb.DB.Metrics, the server Metrics
// frame, and the /metrics.json HTTP endpoint all expose exactly this shape).
type RegistrySnapshot struct {
	Hi            PhaseSummaries `json:"hi"`
	Lo            PhaseSummaries `json:"lo"`
	UintrDelivery Summary        `json:"uintr_delivery"`
}

// Snapshot summarizes every (class, phase) histogram plus delivery latency.
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	for _, cp := range []struct {
		c  Class
		ps *PhaseSummaries
	}{{ClassHi, &snap.Hi}, {ClassLo, &snap.Lo}} {
		dst := cp.ps.byPhase()
		for p := Phase(0); p < NumPhases; p++ {
			*dst[p] = r.hists[cp.c][p].Summarize()
		}
	}
	snap.UintrDelivery = r.delivery.Summarize()
	return snap
}

// MergedSnapshot summarizes several registries (one per shard) as if every
// sample had been recorded into one. The merge is exact: bucket counts, sums,
// and extrema add directly (Histogram.Merge), so percentiles of the merged
// view carry the same ~1.5% bucket-resolution error as a single registry's —
// no averaging-of-percentiles distortion. Nil registries are skipped; each
// histogram is snapshotted exactly once per call.
func MergedSnapshot(regs []*Registry) RegistrySnapshot {
	var snap RegistrySnapshot
	merge := func(pick func(*Registry) *ConcurrentHistogram) Summary {
		var acc Histogram
		for _, r := range regs {
			if r == nil {
				continue
			}
			h := pick(r).Snapshot()
			acc.Merge(&h)
		}
		return acc.Summarize()
	}
	for _, cp := range []struct {
		c  Class
		ps *PhaseSummaries
	}{{ClassHi, &snap.Hi}, {ClassLo, &snap.Lo}} {
		dst := cp.ps.byPhase()
		for p := Phase(0); p < NumPhases; p++ {
			c, p := cp.c, p
			*dst[p] = merge(func(r *Registry) *ConcurrentHistogram { return r.Phase(c, p) })
		}
	}
	snap.UintrDelivery = merge(func(r *Registry) *ConcurrentHistogram { return r.Delivery() })
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one summary-style family for the per-phase latencies (labelled by
// class and phase) and one for uintr delivery latency, all in nanoseconds.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP preemptdb_phase_latency_nanoseconds Per-phase transaction latency by priority class.\n")
	fmt.Fprintf(w, "# TYPE preemptdb_phase_latency_nanoseconds summary\n")
	for _, cp := range []struct {
		c  Class
		ps PhaseSummaries
	}{{ClassHi, s.Hi}, {ClassLo, s.Lo}} {
		src := cp.ps.byPhase()
		for p := Phase(0); p < NumPhases; p++ {
			writePromSummary(w, "preemptdb_phase_latency_nanoseconds",
				fmt.Sprintf(`class=%q,phase=%q`, cp.c.String(), p.String()), *src[p])
		}
	}
	fmt.Fprintf(w, "# HELP preemptdb_uintr_delivery_nanoseconds Userspace-interrupt latency from SendUIPI post to handler recognition.\n")
	fmt.Fprintf(w, "# TYPE preemptdb_uintr_delivery_nanoseconds summary\n")
	writePromSummary(w, "preemptdb_uintr_delivery_nanoseconds", "", s.UintrDelivery)
}

func writePromSummary(w io.Writer, name, labels string, sum Summary) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, q := range []struct {
		q string
		v int64
	}{{"0.5", sum.P50}, {"0.9", sum.P90}, {"0.99", sum.P99}, {"0.999", sum.P999}} {
		fmt.Fprintf(w, "%s{%s%squantile=%q} %d\n", name, labels, sep, q.q, q.v)
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, sum.Mean*float64(sum.Count))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, sum.Count)
}
