package preemptdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Cache-coherence torture: concurrent read-modify-write writers, cross-shard
// transfer transactions (2PC when Shards > 1), deadline expiries, and
// submitter cancels, against readers that assert linearizability of the
// hot-key cache — per-key counters observed through transactions and through
// CachedGet must never go backwards, snapshot sums must hold exactly, and
// the final state must equal the committed-increment accounting.

func TestCacheCoherenceTorture(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { cacheTorture(t, shards) })
	}
}

func cacheTorture(t *testing.T, shards int) {
	db, err := Open("", Config{Shards: shards, Workers: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.CreateTable("kv")

	// Counter keys: single-key increments, per-key success accounting.
	const nkeys = 8
	keys := make([][]byte, nkeys)
	var committed [nkeys]atomic.Uint64
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ctr-%04d", i))
		k := keys[i]
		if err := db.Run(func(tx *Txn) error {
			var v [8]byte
			return tx.Put("kv", k, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Account keys: cross-shard transfers preserving the total.
	const naccts, initial = 8, 1000
	accts := make([][]byte, naccts)
	for i := range accts {
		accts[i] = []byte(fmt.Sprintf("acct-%04d", i))
		k := accts[i]
		if err := db.Run(func(tx *Txn) error {
			var v [8]byte
			putUint(v[:], initial)
			return tx.Put("kv", k, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}

	tolerable := func(err error) bool {
		return IsConflict(err) || IsDeadlineExceeded(err) || IsCanceled(err) || errors.Is(err, ErrQueueFull)
	}
	inc := func(k []byte) func(tx *Txn) error {
		return func(tx *Txn) error {
			v, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			var nv [8]byte
			putUint(nv[:], getUint(v)+1)
			return tx.Put("kv", k, nv[:])
		}
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup

	// Increment writers: mostly plain commits, with a sprinkling of tight
	// deadlines (expire mid-flight) and submit-then-cancel — both must close
	// the cache's write window on their abort paths.
	const incIters = 250
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < incIters; i++ {
				ki := (w*5 + i) % nkeys
				k := keys[ki]
				switch i % 9 {
				case 3:
					opts := TxnOptions{Timeout: time.Duration(1+i%40) * time.Microsecond}
					if err := db.ExecOpts(opts, inc(k)); err == nil {
						committed[ki].Add(1)
					} else if !tolerable(err) {
						t.Errorf("deadline writer: %v", err)
						return
					}
				case 6:
					p, err := db.SubmitOpts(TxnOptions{}, inc(k))
					if err != nil {
						if !tolerable(err) {
							t.Errorf("submit: %v", err)
							return
						}
						continue
					}
					p.Cancel()
					if err := p.Wait(); err == nil {
						committed[ki].Add(1) // raced past the cancel: it committed
					} else if !tolerable(err) {
						t.Errorf("canceled writer: %v", err)
						return
					}
				default:
					if err := db.ExecOpts(TxnOptions{Priority: Low}, inc(k)); err == nil {
						committed[ki].Add(1)
					} else if !tolerable(err) {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Transfer writers: two-key transactions that cross shard boundaries
	// (2PC prepare/resolve with the cache's in-doubt write windows).
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < incIters; i++ {
				from := accts[(g*13+i)%naccts]
				to := accts[(g*7+i*3+1)%naccts]
				if string(from) == string(to) {
					continue
				}
				err := db.ExecOpts(TxnOptions{Priority: Low}, func(tx *Txn) error {
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
				if err != nil && !tolerable(err) {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(g)
	}

	// Monotonic readers: per reader, a key's counter observed through a
	// transaction or through CachedGet must never decrease — a stale cache
	// hit is exactly a decrease.
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var last [nkeys]uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := (r*3 + i) % nkeys
				k := keys[ki]
				var v uint64
				if err := db.Run(func(tx *Txn) error {
					b, err := tx.Get("kv", k)
					if err != nil {
						return err
					}
					v = getUint(b)
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if v < last[ki] {
					t.Errorf("stale transactional read: key %d went %d -> %d", ki, last[ki], v)
					return
				}
				last[ki] = v
				if c, ok := db.CachedGet("kv", k); ok {
					cv := getUint(c)
					if cv < last[ki] {
						t.Errorf("stale cache hit: key %d cached %d after observing %d", ki, cv, last[ki])
						return
					}
					last[ki] = cv
				}
			}
		}(r)
	}

	// Snapshot-sum readers: the account total must hold exactly in every
	// snapshot, single- and multi-shard alike. Across shards that exactness
	// rests on the cross-shard resolution gate — a 2PC transfer publishes all
	// its participants inside one critical section of the gate, and a
	// multi-shard reader whose lazily-established per-shard snapshots
	// straddle a resolution fails with a retryable conflict instead of
	// observing the transfer on one shard but not the other.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var total uint64
				if err := db.Run(func(tx *Txn) error {
					total = 0
					for _, k := range accts {
						v, err := tx.Get("kv", k)
						if err != nil {
							return err
						}
						total += getUint(v)
					}
					return nil
				}); err != nil {
					t.Errorf("sum reader: %v", err)
					return
				}
				if total != naccts*initial {
					t.Errorf("snapshot sum = %d, want %d (torn or stale read)", total, naccts*initial)
					return
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Final accounting: every successful increment is visible, nothing extra.
	for ki, k := range keys {
		var v uint64
		if err := db.Run(func(tx *Txn) error {
			b, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			v = getUint(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := committed[ki].Load(); v != want {
			t.Errorf("key %d: final = %d, committed = %d", ki, v, want)
		}
	}
	// Quiesced account total: transfers conserved money through the cache's
	// 2PC invalidation windows.
	var total uint64
	if err := db.Run(func(tx *Txn) error {
		total = 0
		for _, k := range accts {
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
	if total != naccts*initial {
		t.Errorf("final account total = %d, want %d", total, naccts*initial)
	}
	st := db.Stats()
	if st.CacheHits == 0 {
		t.Error("torture finished without a single cache hit")
	}
	if st.CacheInvalidations == 0 {
		t.Error("torture finished without a single invalidation")
	}
}

// TestCacheCrossShardInvalidation: a deterministic 2PC check — a cross-shard
// transaction invalidates cached entries on every participant shard at its
// commit point, and post-resolve reads refill with the new values.
func TestCacheCrossShardInvalidation(t *testing.T) {
	db, err := Open("", Config{Shards: 4, Workers: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.CreateTable("kv")
	a, b := []byte("acct-a"), []byte("acct-b")
	for _, k := range [][]byte{a, b} {
		k := k
		if err := db.Run(func(tx *Txn) error {
			var v [8]byte
			putUint(v[:], 100)
			return tx.Put("kv", k, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	readKey := func(k []byte) uint64 {
		t.Helper()
		var v uint64
		if err := db.Run(func(tx *Txn) error {
			b, err := tx.Get("kv", k)
			if err != nil {
				return err
			}
			v = getUint(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Fill the cache on both shards, then hit it once more.
	for i := 0; i < 2; i++ {
		if readKey(a) != 100 || readKey(b) != 100 {
			t.Fatal("seed values wrong")
		}
	}
	if db.Stats().CacheHits == 0 {
		t.Fatal("warm-up reads never hit the cache")
	}

	// Cross-shard transfer: 2PC with prepare/resolve on both shards.
	if err := db.Run(func(tx *Txn) error {
		var av, bv [8]byte
		putUint(av[:], 70)
		putUint(bv[:], 130)
		if err := tx.Put("kv", a, av[:]); err != nil {
			return err
		}
		return tx.Put("kv", b, bv[:])
	}); err != nil {
		t.Fatal(err)
	}
	if got := readKey(a); got != 70 {
		t.Fatalf("a after cross-shard commit = %d, want 70 (stale cache)", got)
	}
	if got := readKey(b); got != 130 {
		t.Fatalf("b after cross-shard commit = %d, want 130 (stale cache)", got)
	}
	// And the refilled entries serve the new values.
	if got := readKey(a); got != 70 {
		t.Fatalf("a refilled = %d, want 70", got)
	}
	if c, ok := db.CachedGet("kv", b); ok && getUint(c) != 130 {
		t.Fatalf("cached b = %d, want 130", getUint(c))
	}
}
