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
		if avg := testing.AllocsPerRun(256, rmw); avg > 3 {
			t.Fatalf("shards=%d: DB.Run(Get+Put) allocates %.1f allocs/op, want <= 3", shards, avg)
		}
	}
}
