//go:build !race

package preemptdb

import "testing"

// The race detector makes sync.Pool drop items at random, so a non-zero
// allocation count is only exact without it.

// TestRunAllocs pins the facade's per-transaction allocations: BenchmarkCommitSI
// and TestCommitAllocsWithMetrics hold the engine's commit path at 0 allocs/op,
// but nothing held what DB.Run adds on top (the request, its done channel and
// the participant slice). One Get + one Put costs the same at every shard
// count — AllocsPerRun counts the whole process, so the worker's side is in.
// A Put of an existing key allocates no index record (the transaction keeps a
// spare one for inserts), so Run(Get+Put) is 2 allocs/op.
func TestRunAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db := openTest(t, Config{Workers: 1, Shards: shards})
		db.CreateTable("t")
		key, val := []byte("key"), []byte("value")
		rmw := func() {
			if err := db.Run(func(tx *Txn) error {
				if _, err := tx.Get("t", key); err != nil && !IsNotFound(err) {
					return err
				}
				return tx.Put("t", key, val)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			rmw() // warm the pools, the version chain and the WAL batch buffer
		}
		if avg := testing.AllocsPerRun(256, rmw); avg > 2 {
			t.Fatalf("shards=%d: DB.Run(Get+Put) allocates %.1f allocs/op, want <= 2", shards, avg)
		}
	}
}

// TestExecOptsAllocs pins the scheduled path the facade workloads and the
// server take: ExecOpts hands the body to a worker and waits for it. The
// Pending carries the request inline, so on top of DB.Run's Get+Put it adds
// the Pending, its done channel (two) and the request's Work and OnDone
// closures: 7 allocs/op, at High and at Low.
func TestExecOptsAllocs(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	key, val := []byte("key"), []byte("value")
	body := func(tx *Txn) error {
		if _, err := tx.Get("t", key); err != nil && !IsNotFound(err) {
			return err
		}
		return tx.Put("t", key, val)
	}
	for _, prio := range []Priority{High, Low} {
		opts := TxnOptions{Priority: prio}
		exec := func() {
			if err := db.ExecOpts(opts, body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			exec() // warm the pools, the version chain and the WAL batch buffer
		}
		if avg := testing.AllocsPerRun(256, exec); avg > 7 {
			t.Fatalf("priority %d: ExecOpts(Get+Put) allocates %.1f allocs/op, want <= 7", prio, avg)
		}
	}
}
