package main

import (
	"fmt"

	"preemptdb"
)

// fillFacadeRows sets the counter-sourced (C) per-layer rows of a workload
// that runs through the preemptdb facade, from the public Stats read before
// and after the window and the public latency histograms. It vacuums the
// database, so it runs after the heap has been measured.
func fillFacadeRows(res *passResult, db *preemptdb.DB, b, a preemptdb.Stats, fgOps uint64, windowS float64) {
	fg := float64(max(fgOps, 1))
	snap := db.Metrics()
	res.setL("uintr.delivery_mean_ns", snap.UintrDelivery.Mean, snap.UintrDelivery.Count)
	res.setL("uintr.interrupts_per_fg_txn", float64(a.InterruptsSent-b.InterruptsSent)/fg, a.InterruptsSent-b.InterruptsSent)
	res.setL("pcontext.passive_switches_per_s", float64(a.PassiveSwitches-b.PassiveSwitches)/windowS, a.PassiveSwitches-b.PassiveSwitches)
	res.setL("pcontext.active_switches_per_s", float64(a.ActiveSwitches-b.ActiveSwitches)/windowS, a.ActiveSwitches-b.ActiveSwitches)
	res.setL("sched.dropped_fg", float64(a.AbortsQueueFull-b.AbortsQueueFull), res.Attempted)
	res.setL("sched.starvation_skips", float64(a.StarvationSkips-b.StarvationSkips), res.Attempted)
	res.setL("index.restarts_per_kop", float64(a.IndexRestarts-b.IndexRestarts)/(fg/1e3), a.IndexRestarts-b.IndexRestarts)
	if n := a.Commits - b.Commits; n > 0 {
		res.setL("wal.bytes_per_txn", float64(a.LogBytes-b.LogBytes)/float64(n), n)
		res.setL("engine.aborts_per_ktxn", float64(a.Aborts-b.Aborts)/float64(n)*1e3, n)
	}
	if n := a.LogBatches - b.LogBatches; n > 0 {
		res.setL("wal.txns_per_batch", float64(a.Commits-b.Commits)/float64(n), n)
	}
	res.setL("wal.wait_p99_us", float64(snap.Hi.WALWait.P99)/1e3, snap.Hi.WALWait.Count)
	if n := a.CacheHits + a.CacheMisses - b.CacheHits - b.CacheMisses; n > 0 {
		res.setL("hotcache.hit_ratio", float64(a.CacheHits-b.CacheHits)/float64(n), n)
	}
	// Without spans inside the program (wire_kv) the scheduler's own
	// histogram is the queue wait; fillSpanRows overwrites it where the
	// benchmark's spans measured it.
	res.setL("sched.queue_wait_p50_us", float64(snap.Hi.QueueWait.P50)/1e3, snap.Hi.QueueWait.Count)
	res.setL("sched.queue_wait_p99_us", float64(snap.Hi.QueueWait.P99)/1e3, snap.Hi.QueueWait.Count)
	// Versions a vacuum can reclaim now are the chains' excess over one
	// version per record (the public API does not expose single records).
	res.setL("mvcc.chain_len_mean", 1+float64(db.Vacuum())/tableRows, tableRows)
}

// fillSpanRows sets the span-sourced (S) rows from the traced pass. A row is
// the median over the sampled requests; rows whose span kind the workload
// never records are left to the caller.
func fillSpanRows(res *passResult, st *spanStats) {
	p50 := func(name string, h *hist, div float64) {
		if h.n > 0 {
			res.setL(name, h.quantile(0.5)/div, h.n)
		}
	}
	p50("sched.submit_ns", &st.self[spSubmit], 1)
	p50("sched.queue_wait_p50_us", &st.dur[spQueueWait], 1e3)
	if h := &st.dur[spQueueWait]; h.n > 0 {
		res.setL("sched.queue_wait_p99_us", h.quantile(0.99)/1e3, h.n)
	}
	p50("engine.exec_p50_us", &st.dur[spExec], 1e3)
	p50("engine.commit_done_p50_us", &st.dur[spCommitDone], 1e3)
	p50("tpcc.neworder_exec_p50_us", &st.dur[spNewOrder], 1e3)
	p50("tpcc.payment_exec_p50_us", &st.dur[spPayment], 1e3)
	p50("tpch.q2_exec_p50_ms", &st.dur[spQ2], 1e6)
	if res.Workload == "xshard_transfer" {
		p50("dtx.single_p50_us", &st.single, 1e3)
	}
	res.setL("trace.unattributed_pct", st.unattributedPct(), st.requests)
	if st.dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d sampled requests left out of the span statistics (buffer full or more spans than fit)", st.dropped))
	}
}
