package preemptdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"preemptdb/internal/dtx"
)

func openShardedMem(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := Open("", Config{Shards: shards, Workers: 2, SyncEachCommit: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.CreateTable("kv")
	return db
}

func shardKey(t *testing.T, db *DB, i int) []byte {
	t.Helper()
	return []byte(fmt.Sprintf("k-%04d", i))
}

func TestShardRoutingAndPointOps(t *testing.T) {
	db := openShardedMem(t, 4)
	const n = 200
	for i := 0; i < n; i++ {
		k := shardKey(t, db, i)
		if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", k, k) }); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	// Keys actually spread across shards.
	populated := 0
	for si, sh := range db.shards {
		tab, err := sh.eng.Table("kv")
		if err != nil {
			t.Fatal(err)
		}
		cnt := 0
		tx := sh.eng.Begin(nil)
		tx.Scan(tab, nil, nil, func(k, v []byte) bool { cnt++; return true })
		tx.Abort()
		if cnt > 0 {
			populated++
		}
		_ = si
	}
	if populated < 2 {
		t.Fatalf("hash routing left %d of 4 shards populated", populated)
	}
	// Every key readable back through the facade, updated, deleted.
	for i := 0; i < n; i++ {
		k := shardKey(t, db, i)
		if err := db.Exec(High, func(tx *Txn) error {
			v, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, k) {
				return fmt.Errorf("got %q want %q", v, k)
			}
			return tx.Update("kv", k, append(v, '!'))
		}); err != nil {
			t.Fatalf("get/update %s: %v", k, err)
		}
	}
	if err := db.Run(func(tx *Txn) error { return tx.Delete("kv", shardKey(t, db, 0)) }); err != nil {
		t.Fatal(err)
	}
	err := db.Run(func(tx *Txn) error {
		_, err := tx.Get("kv", shardKey(t, db, 0))
		return err
	})
	if !IsNotFound(err) {
		t.Fatalf("deleted key still visible: %v", err)
	}
}

// TestShardScanMergesGlobalOrder runs at one shard too (the lone cursor
// streams without batching) and with enough rows per shard that cursors
// refill and the last one left streams the tail of its range.
func TestShardScanMergesGlobalOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testShardScanMergesGlobalOrder(t, shards) })
	}
}

func testShardScanMergesGlobalOrder(t *testing.T, shards int) {
	db := openShardedMem(t, shards)
	const n = 1000
	for i := 0; i < n; i++ {
		k := shardKey(t, db, i)
		if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", k, k) }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(desc bool, from, to []byte, wantFirst, wantCount int) {
		t.Helper()
		var keys [][]byte
		scan := func(tx *Txn) error {
			collect := func(k, v []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return true
			}
			if desc {
				return tx.ScanDesc("kv", from, to, collect)
			}
			return tx.Scan("kv", from, to, collect)
		}
		if err := db.Run(scan); err != nil {
			t.Fatal(err)
		}
		if len(keys) != wantCount {
			t.Fatalf("desc=%v: got %d rows want %d", desc, len(keys), wantCount)
		}
		for i := 1; i < len(keys); i++ {
			c := bytes.Compare(keys[i-1], keys[i])
			if (desc && c <= 0) || (!desc && c >= 0) {
				t.Fatalf("desc=%v: order violated at %d: %q vs %q", desc, i, keys[i-1], keys[i])
			}
		}
		if wantCount > 0 && !bytes.Equal(keys[0], shardKey(t, db, wantFirst)) {
			t.Fatalf("desc=%v: first key %q want %q", desc, keys[0], shardKey(t, db, wantFirst))
		}
	}
	check(false, nil, nil, 0, n)
	check(true, nil, nil, n-1, n)
	check(false, shardKey(t, db, 10), shardKey(t, db, 20), 10, 10)
	check(true, shardKey(t, db, 10), shardKey(t, db, 20), 19, 10)
	check(false, shardKey(t, db, 100), shardKey(t, db, 900), 100, 800)
	check(true, shardKey(t, db, 100), shardKey(t, db, 900), 899, 800)
}

func TestShardScanIndexMerge(t *testing.T) {
	cfg := Config{Shards: 3, Workers: 2, Schema: func(db *DB) error {
		db.CreateTable("kv")
		// Index by the value's first byte: non-unique across and within shards.
		return db.CreateIndex("kv", "by_val", func(key, row []byte) []byte { return row[:1] })
	}}
	db, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 120
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		v := []byte{byte('a' + i%4), byte(i)}
		if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", k, v) }); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	count := 0
	if err := db.Run(func(tx *Txn) error {
		return tx.ScanIndex("kv", "by_val", nil, nil, func(k, v []byte) bool {
			got = append(got, k[0])
			count++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("index scan saw %d rows, want %d", count, n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("index keys out of order at %d: %c > %c", i, got[i-1], got[i])
		}
	}
	count = 0
	last := byte(0xff)
	if err := db.Run(func(tx *Txn) error {
		return tx.ScanIndexDesc("kv", "by_val", nil, nil, func(k, v []byte) bool {
			if k[0] > last {
				t.Fatalf("desc index keys out of order: %c after %c", k[0], last)
			}
			last = k[0]
			count++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("desc index scan saw %d rows, want %d", count, n)
	}
}

// crossPair returns two keys guaranteed to hash to different shards.
func crossPair(nShards int) (a, b []byte) {
	a = []byte("acct-0000")
	for i := 1; ; i++ {
		b = []byte(fmt.Sprintf("acct-%04d", i))
		if dtx.ShardOf(b, nShards) != dtx.ShardOf(a, nShards) {
			return a, b
		}
	}
}

func TestCrossShardCommitAtomic(t *testing.T) {
	db := openShardedMem(t, 4)
	a, b := crossPair(4)
	put := func(k []byte, v byte) {
		if err := db.Run(func(tx *Txn) error { return tx.Put("kv", k, []byte{v}) }); err != nil {
			t.Fatal(err)
		}
	}
	put(a, 100)
	put(b, 100)
	// Transfer: both writes land or neither.
	transfer := func(amount byte) error {
		return db.Run(func(tx *Txn) error {
			av, err := tx.Get("kv", a)
			if err != nil {
				return err
			}
			bv, err := tx.Get("kv", b)
			if err != nil {
				return err
			}
			if err := tx.Put("kv", a, []byte{av[0] - amount}); err != nil {
				return err
			}
			return tx.Put("kv", b, []byte{bv[0] + amount})
		})
	}
	if err := transfer(30); err != nil {
		t.Fatal(err)
	}
	var sum int
	read := func() {
		sum = 0
		if err := db.Run(func(tx *Txn) error {
			for _, k := range [][]byte{a, b} {
				v, err := tx.Get("kv", k)
				if err != nil {
					return err
				}
				sum += int(v[0])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if sum != 200 {
		t.Fatalf("sum after transfer = %d, want 200", sum)
	}
	// A failing transaction body publishes nothing on any shard.
	wantErr := fmt.Errorf("boom")
	err := db.Run(func(tx *Txn) error {
		if err := tx.Put("kv", a, []byte{0}); err != nil {
			return err
		}
		if err := tx.Put("kv", b, []byte{0}); err != nil {
			return err
		}
		return wantErr
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	read()
	if sum != 200 {
		t.Fatalf("sum after aborted transfer = %d, want 200", sum)
	}
}

func TestCrossShardConcurrentTransfers(t *testing.T) {
	db := openShardedMem(t, 4)
	const accounts = 16
	const initial = 1000
	keys := make([][]byte, accounts)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("acct-%04d", i))
		k := keys[i]
		if err := db.Run(func(tx *Txn) error {
			var v [8]byte
			putUint(v[:], initial)
			return tx.Put("kv", k, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := keys[(g*13+i)%accounts]
				to := keys[(g*7+i*3+1)%accounts]
				if bytes.Equal(from, to) {
					continue
				}
				err := db.Exec(Low, func(tx *Txn) error {
					fv, err := tx.Get("kv", from)
					if err != nil {
						return err
					}
					tv, err := tx.Get("kv", to)
					if err != nil {
						return err
					}
					var a, b [8]byte
					putUint(a[:], getUint(fv)-1)
					putUint(b[:], getUint(tv)+1)
					if err := tx.Put("kv", from, a[:]); err != nil {
						return err
					}
					return tx.Put("kv", to, b[:])
				})
				if err != nil && !IsConflict(err) {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(0)
	if err := db.Run(func(tx *Txn) error {
		for _, k := range keys {
			v, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			total += getUint(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (money created/destroyed by non-atomic cross-shard commit)", total, accounts*initial)
	}
}

func putUint(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func getUint(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestShardStatsAggregation(t *testing.T) {
	db := openShardedMem(t, 4)
	// Directed single-shard commits: RouteKey pins the scheduler AND the only
	// key touched, so each commit lands wholly on one shard.
	const perKey = 25
	keys := [][]byte{[]byte("stat-a"), []byte("stat-b"), []byte("stat-c"), []byte("stat-d")}
	for _, k := range keys {
		for i := 0; i < perKey; i++ {
			k := k
			if err := db.ExecOpts(TxnOptions{RouteKey: k}, func(tx *Txn) error {
				return tx.Put("kv", k, []byte{byte(i)})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	per := db.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries, want 4", len(per))
	}
	agg := db.Stats()
	var sum Stats
	for _, st := range per {
		sum.add(st)
	}
	if sum.Commits != agg.Commits {
		t.Fatalf("aggregate commits %d != per-shard sum %d", agg.Commits, sum.Commits)
	}
	if agg.Commits < uint64(perKey*len(keys)) {
		t.Fatalf("aggregate commits %d < %d submitted", agg.Commits, perKey*len(keys))
	}
	totalAborts := sum.AbortsConflict + sum.AbortsDeadline + sum.AbortsCanceled +
		sum.AbortsQueueFull + sum.AbortsWALFailed + sum.AbortsOther
	aggAborts := agg.AbortsConflict + agg.AbortsDeadline + agg.AbortsCanceled +
		agg.AbortsQueueFull + agg.AbortsWALFailed + agg.AbortsOther
	if totalAborts != aggAborts {
		t.Fatalf("per-reason abort sums disagree: shards %d vs aggregate %d", totalAborts, aggAborts)
	}
	// Each routed key's shard saw its commits: at least one shard has >= perKey.
	spread := 0
	for _, st := range per {
		if st.Commits >= perKey {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("no shard recorded the routed commits")
	}
	// Merged metrics count at least the committed requests' total-phase samples.
	m := db.Metrics()
	var perPhase uint64
	for i := range db.shards {
		perPhase += db.ShardMetrics(i).Lo.Total.Count
	}
	if m.Lo.Total.Count != perPhase {
		t.Fatalf("merged lo total count %d != per-shard sum %d", m.Lo.Total.Count, perPhase)
	}
}

func TestShardDurabilityReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 3, Workers: 2, SyncEachCommit: true,
		Schema: func(db *DB) error { db.CreateTable("kv"); return nil },
	}
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", k, k) }); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-shard transfer survives too.
	a, b := crossPair(3)
	if err := db.Run(func(tx *Txn) error {
		if err := tx.Put("kv", a, []byte("A")); err != nil {
			return err
		}
		return tx.Put("kv", b, []byte("B"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+20; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", k, k) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Per-shard directory layout on disk.
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d", i))); err != nil {
			t.Fatalf("shard dir missing: %v", err)
		}
	}
	db2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n+20; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		if err := db2.Run(func(tx *Txn) error {
			v, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, k) {
				return fmt.Errorf("key %q: got %q", k, v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range map[string]string{string(a): "A", string(b): "B"} {
		k, want := []byte(k), []byte(want)
		if err := db2.Run(func(tx *Txn) error {
			v, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, want) {
				return fmt.Errorf("key %q: got %q want %q", k, v, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleShardLayoutUnchanged(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, SyncEachCommit: true,
		Schema: func(db *DB) error { db.CreateTable("kv"); return nil },
	}
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Run(func(tx *Txn) error { return tx.Insert("kv", []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flat layout: WAL segments in the root, no shard-0 subdirectory, and no
	// 2PC decision table in the schema.
	if _, err := os.Stat(filepath.Join(dir, "shard-0")); !os.IsNotExist(err) {
		t.Fatalf("single-shard open created shard-0 dir (err=%v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".log" {
			found = true
		}
	}
	if !found {
		t.Fatal("no WAL segment in the root directory")
	}
	db2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.shards[0].eng.Table(dtx.DecisionTable); err == nil {
		t.Fatal("single-shard database grew a 2PC decision table")
	}
}

func TestShardsConfigValidation(t *testing.T) {
	if _, err := Open("", Config{Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if _, err := Open("", Config{Shards: maxShards + 1}); err == nil {
		t.Fatal("oversized Shards accepted")
	}
	db, err := Open("", Config{Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumShards() != 1 {
		t.Fatalf("Shards=0 gave %d shards, want 1", db.NumShards())
	}
	db.Close()
}
