// Command quickstart shows the basic PreemptDB API: open a database, create
// tables and an index, run transactions at both priorities, scan, and read
// the engine statistics.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"preemptdb"
)

func main() {
	db, err := preemptdb.Open("", preemptdb.Config{
		Workers: 2,
		Policy:  preemptdb.PolicyPreempt,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Schema: an accounts table indexed by owner name.
	db.CreateTable("accounts")
	if err := db.CreateIndex("accounts", "byowner", func(key, row []byte) []byte {
		// Row layout: 8-byte balance followed by the owner name.
		return append([]byte(nil), row[8:]...)
	}); err != nil {
		log.Fatal(err)
	}

	account := func(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }
	row := func(balance uint64, owner string) []byte {
		return append(binary.BigEndian.AppendUint64(nil, balance), owner...)
	}

	// Load initial data on the calling goroutine (no scheduling involved).
	err = db.Run(func(tx *preemptdb.Txn) error {
		for i, owner := range []string{"alice", "bob", "carol"} {
			if err := tx.Insert("accounts", account(uint64(i+1)), row(100, owner)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// A high-priority transfer: runs through the scheduler and, under
	// PolicyPreempt, would interrupt any long-running low-priority work.
	err = db.ExecOpts(preemptdb.TxnOptions{Priority: preemptdb.High}, func(tx *preemptdb.Txn) error {
		from, err := tx.Get("accounts", account(1))
		if err != nil {
			return err
		}
		to, err := tx.Get("accounts", account(2))
		if err != nil {
			return err
		}
		fb := binary.BigEndian.Uint64(from)
		tb := binary.BigEndian.Uint64(to)
		if fb < 25 {
			return fmt.Errorf("insufficient funds: %d", fb)
		}
		if err := tx.Update("accounts", account(1), row(fb-25, string(from[8:]))); err != nil {
			return err
		}
		return tx.Update("accounts", account(2), row(tb+25, string(to[8:])))
	})
	if err != nil {
		log.Fatal(err)
	}

	// A low-priority report: scan everything in key order.
	err = db.ExecOpts(preemptdb.TxnOptions{Priority: preemptdb.Low}, func(tx *preemptdb.Txn) error {
		fmt.Println("account balances:")
		return tx.Scan("accounts", nil, nil, func(k, v []byte) bool {
			fmt.Printf("  #%d %-6s %d\n",
				binary.BigEndian.Uint64(k), v[8:], binary.BigEndian.Uint64(v[:8]))
			return true
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Point lookup through the secondary index.
	db.Run(func(tx *preemptdb.Txn) error {
		return tx.ScanIndex("accounts", "byowner", []byte("bob"), []byte("boc"),
			func(k, v []byte) bool {
				fmt.Printf("index lookup: bob has balance %d\n", binary.BigEndian.Uint64(v[:8]))
				return true
			})
	})

	st := db.Stats()
	fmt.Printf("stats: commits=%d aborts=%d interrupts=%d\n",
		st.Commits, st.Aborts, st.InterruptsSent)
}
