// Command htap reproduces the shape of the paper's evaluation figures on the
// public API. Long low-priority full-table scans (analytical reports) keep
// one worker busy while short high-priority orders arrive. Each table runs
// the same load under several scheduling variants and prints the orders'
// and the scans' in-database latency (Pending.Timing: worker-stamped,
// submission to completion, the paper's metric) next to their throughput:
//
//   - Figures 1 and 10: an order waits for the running scan, yields to it,
//     or preempts it, and what the scans pay for it;
//   - Figure 8: what the interrupt machinery costs the scans when there is
//     nothing to preempt for (an empty order stands in for an empty
//     interrupt);
//   - Figure 11: a cooperative yield interval must be tuned per workload,
//     while preemption needs no knob;
//   - Figure 12: under an order flood, the starvation threshold trades order
//     throughput and latency for scan progress;
//   - Figure 13: the gap between the policies across arrival intervals.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"preemptdb"
)

const rows = 40000

func key(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

// figure is one table: each variant opens a fresh one-worker database and
// runs the same load. Every interval for window, batch orders are submitted;
// a batch stops at the first order the full queues refuse (it is shed).
type figure struct {
	title    string
	variants []variant
	batch    int
	interval time.Duration
	window   time.Duration
	order    func(i uint64) func(tx *preemptdb.Txn) error
	moral    string
	summary  func(rs []result) string // optional line after the table
}

type variant struct {
	label      string
	cfg        preemptdb.Config
	interval   time.Duration // overrides the figure's arrival interval
	noOrders   bool          // scans only
	yieldEvery int           // the scan calls tx.Yield every yieldEvery rows
}

// pointOrder reads one item and records the sale: a short transaction.
func pointOrder(i uint64) func(tx *preemptdb.Txn) error {
	return func(tx *preemptdb.Txn) error {
		item := key(i % rows)
		if _, err := tx.Get("data", item); err != nil {
			return err
		}
		return tx.Put("sales", key(i), item)
	}
}

// rangeOrder reads 2000 records, so the accepted orders alone can occupy the
// worker.
func rangeOrder(uint64) func(tx *preemptdb.Txn) error {
	return func(tx *preemptdb.Txn) error {
		n := 0
		return tx.Scan("data", nil, nil, func(k, v []byte) bool {
			n++
			return n < 2000
		})
	}
}

// emptyOrder does nothing: on PreemptDB it still costs an interrupt and two
// context switches.
func emptyOrder(uint64) func(tx *preemptdb.Txn) error {
	return func(tx *preemptdb.Txn) error { return nil }
}

func policy(label string, p preemptdb.Policy, yieldInterval uint64) variant {
	return variant{label: label, cfg: preemptdb.Config{Workers: 1, Policy: p, YieldInterval: yieldInterval}}
}

func threshold(label string, thr float64) variant {
	return variant{label: label, cfg: preemptdb.Config{Workers: 1, Policy: preemptdb.PolicyPreempt,
		HiQueueSize: 64, StarvationThreshold: thr}}
}

// handcrafted yields at a place the workload chose: every 1000 scanned rows.
func handcrafted() variant {
	v := policy("Cooperative (Handcrafted)", preemptdb.PolicyCooperativeHandcrafted, 0)
	v.yieldEvery = 1000
	return v
}

// arrivalSweep runs the three policies at each arrival interval.
func arrivalSweep(intervals ...time.Duration) []variant {
	var vs []variant
	for _, iv := range intervals {
		for _, v := range []variant{
			policy("Wait", preemptdb.PolicyWait, 0),
			policy("Cooperative", preemptdb.PolicyCooperative, 0),
			policy("PreemptDB", preemptdb.PolicyPreempt, 0),
		} {
			v.label, v.interval = fmt.Sprintf("%v %s", iv, v.label), iv
			vs = append(vs, v)
		}
	}
	return vs
}

var figures = []figure{{
	title: "Figures 1 and 10: an order waits for the running scan, yields to it, or preempts it",
	variants: []variant{
		policy("Wait", preemptdb.PolicyWait, 0),
		policy("Cooperative", preemptdb.PolicyCooperative, 0),
		policy("PreemptDB", preemptdb.PolicyPreempt, 0),
	},
	batch: 1, interval: 2 * time.Millisecond, window: 500 * time.Millisecond, order: pointOrder,
	moral: "Orders wait for whole scans under Wait; PreemptDB serves them in microseconds, and scan latency stays in the same range.",
}, {
	title: "Figure 8: interrupt overhead (no orders under Wait, one empty order per ms under PreemptDB)",
	variants: []variant{
		{label: "Wait, no orders", cfg: preemptdb.Config{Workers: 1, Policy: preemptdb.PolicyWait}, noOrders: true},
		policy("PreemptDB, empty", preemptdb.PolicyPreempt, 0),
	},
	batch: 1, interval: time.Millisecond, window: time.Second, order: emptyOrder,
	moral: "The paper's hardware checks for interrupts for free; here every record's poll reads the interrupt descriptor, and the overhead prices that check.",
	summary: func(rs []result) string {
		return fmt.Sprintf("overhead: %.1f%% of scans/s (paper: ~1.7%% of TPC-C throughput)",
			(rs[0].scansS-rs[1].scansS)/rs[0].scansS*100)
	},
}, {
	title: "Figure 11: cooperative yield intervals vs preemption",
	variants: []variant{
		policy("Cooperative/100", preemptdb.PolicyCooperative, 100),
		policy("Cooperative/10000", preemptdb.PolicyCooperative, 10000),
		policy("Cooperative/1000000", preemptdb.PolicyCooperative, 1000000),
		handcrafted(),
		policy("PreemptDB", preemptdb.PolicyPreempt, 0),
	},
	batch: 1, interval: time.Millisecond, window: 300 * time.Millisecond, order: pointOrder,
	moral: "Coarse yields delay orders; PreemptDB matches the finest interval with no knob to tune.",
}, {
	title: "Figure 12: starvation threshold under an order flood (64 orders per ms)",
	variants: []variant{
		threshold("0.00", 0.000001),
		threshold("0.25", 0.25),
		threshold("0.50", 0.5),
		threshold("0.75", 0.75),
		threshold("off", 100),
	},
	batch: 64, interval: time.Millisecond, window: time.Second, order: rangeOrder,
	moral: "Threshold 0 keeps the scans flowing and throttles the flood; with prevention off, orders take the worker.",
}, {
	title:    "Figure 13: arrival interval",
	variants: arrivalSweep(100*time.Microsecond, time.Millisecond, 10*time.Millisecond),
	batch:    1, window: 300 * time.Millisecond, order: pointOrder,
	moral: "Wait's orders queue behind scans at every rate; PreemptDB's median stays in tens of microseconds across a 100x range of rates.",
}}

type result struct {
	p50, p99         time.Duration // orders
	scanP50, scanP99 time.Duration
	shed             int
	ordersS, scansS  float64
}

// percentiles sorts lat and returns its p50 and p99 (zero when empty).
func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	slices.Sort(lat)
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

func run(f figure, v variant) result {
	db, err := preemptdb.Open("", v.cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("data")
	db.CreateTable("sales")
	if err := db.Run(func(tx *preemptdb.Txn) error {
		val := make([]byte, 32)
		for i := uint64(0); i < rows; i++ {
			if err := tx.Insert("data", key(i), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	stop, scans := make(chan struct{}), make(chan []time.Duration)
	go scan(db, v.yieldEvery, stop, scans)
	time.Sleep(10 * time.Millisecond) // let the first scan occupy the worker

	interval := f.interval
	if v.interval != 0 {
		interval = v.interval
	}
	batch := f.batch
	if v.noOrders {
		batch = 0
	}
	var orders []*preemptdb.Pending
	var r result
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	for i, ticks := uint64(0), 0; time.Since(start) < f.window; <-tick.C {
		// A ticker drops the ticks its reader sleeps through; submit their
		// batches too, so the offered rate is batch per interval.
		for due := int(time.Since(start)/interval) + 1; ticks < due; ticks++ {
			for b := 0; b < batch; b, i = b+1, i+1 {
				p, err := db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.High}, f.order(i))
				if errors.Is(err, preemptdb.ErrQueueFull) {
					r.shed += batch - b
					break
				} else if err != nil {
					log.Fatal(err)
				}
				orders = append(orders, p)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	close(stop)

	lat := make([]time.Duration, len(orders))
	for i, p := range orders {
		if err := p.Wait(); err != nil {
			log.Fatalf("%s: order: %v", v.label, err)
		}
		lat[i] = p.Timing().Total
	}
	r.p50, r.p99 = percentiles(lat)
	scanLat := <-scans
	r.scanP50, r.scanP99 = percentiles(scanLat)
	r.ordersS = float64(len(orders)) / elapsed
	r.scansS = float64(len(scanLat)) / elapsed
	return r
}

// scan keeps the worker busy with low-priority full-table scans until stop
// closes, then sends the latency of every scan that completed. One scan
// always waits queued behind the running one, so the worker never idles
// while this goroutine resubmits. With yieldEvery > 0 the scan offers the
// worker to queued orders every yieldEvery rows (PolicyCooperativeHandcrafted).
func scan(db *preemptdb.DB, yieldEvery int, stop <-chan struct{}, done chan<- []time.Duration) {
	body := func(tx *preemptdb.Txn) error {
		n := 0
		return tx.Scan("data", nil, nil, func(k, v []byte) bool {
			if n++; yieldEvery > 0 && n%yieldEvery == 0 {
				tx.Yield()
			}
			return true
		})
	}
	submit := func() *preemptdb.Pending {
		p, err := db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.Low}, body)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	wait := func(p *preemptdb.Pending) time.Duration {
		if err := p.Wait(); err != nil {
			log.Fatalf("scan: %v", err)
		}
		return p.Timing().Total
	}
	var lat []time.Duration
	running, queued := submit(), submit()
	for {
		lat = append(lat, wait(running))
		select {
		case <-stop:
			done <- append(lat, wait(queued))
			return
		default:
		}
		running, queued = queued, submit()
	}
}

func main() {
	for i, f := range figures {
		if i > 0 {
			fmt.Println()
		}
		fmt.Println(f.title)
		fmt.Printf("%-26s %10s %10s %9s %6s %10s %10s %8s\n",
			"variant", "order p50", "order p99", "orders/s", "shed", "scan p50", "scan p99", "scans/s")
		var rs []result
		for _, v := range f.variants {
			r := run(f, v)
			rs = append(rs, r)
			fmt.Printf("%-26s %10v %10v %9.0f %6d %10v %10v %8.1f\n", v.label,
				r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond), r.ordersS, r.shed,
				r.scanP50.Round(time.Microsecond), r.scanP99.Round(time.Microsecond), r.scansS)
		}
		if f.summary != nil {
			fmt.Println(f.summary(rs))
		}
		fmt.Println(f.moral)
	}
}
