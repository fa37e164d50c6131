// Command htap demonstrates the paper's headline scenario on the public
// API: long, low-priority analytical reports share workers with short,
// high-priority sales transactions. The report is a plain full-table scan,
// preemptible at every row. It runs the same mixed workload under
// PolicyWait and PolicyPreempt and prints the high-priority latency
// distribution of each, reproducing the shape of the paper's Figure 1.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"preemptdb"
)

const (
	rows      = 60000
	reportLen = 10 // analytical report = reportLen full scans
	orders    = 200
)

func key(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

func runPolicy(policy preemptdb.Policy) (lat []time.Duration, scanned, restocks uint64) {
	db, err := preemptdb.Open("", preemptdb.Config{
		Workers: 4,
		Policy:  policy,
		// Background vacuum keeps the repeatedly-updated sales/inventory
		// version chains short for the duration of the mix.
		VacuumInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.CreateTable("sales")
	db.CreateTable("inventory")
	if err := db.Run(func(tx *preemptdb.Txn) error {
		val := make([]byte, 64)
		for i := uint64(0); i < rows; i++ {
			if err := tx.Insert("inventory", key(i), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// Keep an analytical report running at low priority for the whole
	// experiment: it scans the full inventory repeatedly (think: operational
	// reporting over fresh data). The report is self-perpetuating — its
	// completion callback (which runs on the worker) submits the next one —
	// so the worker is never idle waiting on a client goroutine.
	stop := make(chan struct{})
	reportDone := make(chan struct{})
	var rowsScanned atomic.Uint64
	report := func(tx *preemptdb.Txn) error {
		for r := 0; r < reportLen; r++ {
			// The counter is read by the main goroutine, hence atomic.
			if err := tx.Scan("inventory", nil, nil, func(k, v []byte) bool {
				rowsScanned.Add(1)
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	}
	var resubmit func(error)
	resubmit = func(error) {
		select {
		case <-stop:
			close(reportDone)
		default:
			db.Submit(preemptdb.Low, report, resubmit)
		}
	}
	db.Submit(preemptdb.Low, report, resubmit)

	// A restocking writer updates inventory rows the orders read: its
	// write-write conflicts with other updates are absorbed by ExecRetry's
	// bounded exponential backoff instead of surfacing to the operator.
	restockDone := make(chan struct{})
	go func() {
		defer close(restockDone)
		val := make([]byte, 64)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.ExecRetry(preemptdb.Low, func(tx *preemptdb.Txn) error {
				return tx.Put("inventory", key(i%rows), val)
			}); err != nil {
				log.Fatalf("restock: %v", err)
			}
			restocks++
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the report occupy the worker

	// Fire high-priority sales orders at a steady arrival rate and measure
	// the in-database end-to-end latency (worker-stamped: submission to
	// completion, the paper's metric).
	for i := 0; i < orders; i++ {
		oid := uint64(i)
		timing, err := db.ExecTimed(preemptdb.High, func(tx *preemptdb.Txn) error {
			item := key(oid % rows)
			if _, err := tx.Get("inventory", item); err != nil {
				return err
			}
			return tx.Put("sales", key(oid), item)
		})
		if err != nil {
			log.Fatalf("order %d: %v", i, err)
		}
		lat = append(lat, timing.Total)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-reportDone
	<-restockDone
	return lat, rowsScanned.Load(), restocks
}

func percentile(lat []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func main() {
	fmt.Println("HTAP mix: low-priority full-table reports + restocking writer + high-priority orders")
	fmt.Printf("%-10s %10s %10s %10s %14s %10s\n", "policy", "p50", "p90", "p99", "report rows/s", "restocks")
	for _, policy := range []preemptdb.Policy{preemptdb.PolicyWait, preemptdb.PolicyPreempt} {
		start := time.Now()
		lat, scanned, restocks := runPolicy(policy)
		elapsed := time.Since(start).Seconds()
		fmt.Printf("%-10s %10v %10v %10v %14.0f %10d\n", policy,
			percentile(lat, 50).Round(time.Microsecond),
			percentile(lat, 90).Round(time.Microsecond),
			percentile(lat, 99).Round(time.Microsecond),
			float64(scanned)/elapsed, restocks)
	}
	fmt.Println("\nPreemptDB serves orders in microseconds-to-milliseconds while the")
	fmt.Println("report keeps (almost) the same scan throughput — wait-based")
	fmt.Println("scheduling makes orders queue behind entire reports.")
}
