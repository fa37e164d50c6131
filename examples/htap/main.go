// Command htap reproduces the shape of three of the paper's figures on the
// public API. Long low-priority full-table scans (analytical reports) keep
// one worker busy while short high-priority orders arrive. Each table runs
// the same load under several scheduling variants and prints the orders'
// in-database latency (Pending.Timing: worker-stamped, submission to
// completion, the paper's metric) next to the scans' throughput:
//
//   - Figure 1: an order waits for the running scan, or preempts it;
//   - Figure 11: a cooperative yield interval must be tuned per workload,
//     while preemption needs no knob;
//   - Figure 12: under an order flood, the starvation threshold trades order
//     throughput and latency for scan progress.
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
}

type variant struct {
	label string
	cfg   preemptdb.Config
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

func policy(label string, p preemptdb.Policy, yieldInterval uint64) variant {
	return variant{label, preemptdb.Config{Workers: 1, Policy: p, YieldInterval: yieldInterval}}
}

func threshold(label string, thr float64) variant {
	return variant{label, preemptdb.Config{Workers: 1, Policy: preemptdb.PolicyPreempt,
		HiQueueSize: 64, StarvationThreshold: thr}}
}

var figures = []figure{{
	title: "Figure 1: an order waits for the running scan, or preempts it",
	variants: []variant{
		policy("Wait", preemptdb.PolicyWait, 0),
		policy("PreemptDB", preemptdb.PolicyPreempt, 0),
	},
	batch: 1, interval: 2 * time.Millisecond, window: 500 * time.Millisecond, order: pointOrder,
	moral: "Orders wait for whole scans under Wait; PreemptDB serves them in microseconds.",
}, {
	title: "Figure 11: cooperative yield intervals vs preemption",
	variants: []variant{
		policy("Cooperative/100", preemptdb.PolicyCooperative, 100),
		policy("Cooperative/10000", preemptdb.PolicyCooperative, 10000),
		policy("Cooperative/1000000", preemptdb.PolicyCooperative, 1000000),
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
	moral: "Low thresholds keep the scans flowing and throttle the flood; with prevention off, orders take the worker.",
}}

type result struct {
	p50, p99        time.Duration
	shed            int
	ordersS, scansS float64
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

	stop, scans := make(chan struct{}), make(chan int)
	go scan(db, stop, scans)
	time.Sleep(10 * time.Millisecond) // let the first scan occupy the worker

	var orders []*preemptdb.Pending
	var r result
	tick := time.NewTicker(f.interval)
	defer tick.Stop()
	start := time.Now()
	for i := uint64(0); time.Since(start) < f.window; <-tick.C {
		for b := 0; b < f.batch; b, i = b+1, i+1 {
			p, err := db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.High}, f.order(i))
			if errors.Is(err, preemptdb.ErrQueueFull) {
				r.shed += f.batch - b
				break
			} else if err != nil {
				log.Fatal(err)
			}
			orders = append(orders, p)
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
	slices.Sort(lat)
	if len(lat) > 0 {
		r.p50, r.p99 = lat[len(lat)/2], lat[len(lat)*99/100]
	}
	r.ordersS = float64(len(orders)) / elapsed
	r.scansS = float64(<-scans) / elapsed
	return r
}

// scan keeps the worker busy with low-priority full-table scans until stop
// closes, then sends how many completed. One scan always waits queued behind
// the running one, so the worker never idles while this goroutine resubmits.
func scan(db *preemptdb.DB, stop <-chan struct{}, done chan<- int) {
	body := func(tx *preemptdb.Txn) error {
		return tx.Scan("data", nil, nil, func(k, v []byte) bool { return true })
	}
	submit := func() *preemptdb.Pending {
		p, err := db.SubmitOpts(preemptdb.TxnOptions{Priority: preemptdb.Low}, body)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	running, queued := submit(), submit()
	for n := 0; ; n++ {
		if err := running.Wait(); err != nil {
			log.Fatal(err)
		}
		select {
		case <-stop:
			queued.Wait()
			done <- n + 1
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
		fmt.Printf("%-20s %10s %10s %10s %8s %10s\n", "variant", "order p50", "order p99", "orders/s", "shed", "scans/s")
		for _, v := range f.variants {
			r := run(f, v)
			fmt.Printf("%-20s %10v %10v %10.0f %8d %10.1f\n", v.label,
				r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond), r.ordersS, r.shed, r.scansS)
		}
		fmt.Println(f.moral)
	}
}
