package hotcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"preemptdb/internal/wal"
)

func newTest(maxBytes int64) *Cache {
	return New(Config{MaxBytes: maxBytes, Shards: 4})
}

func fill(t *testing.T, c *Cache, table uint32, key, val string, ts uint64) {
	t.Helper()
	tok := c.FillBegin(table, []byte(key))
	if !c.TryFill(tok, table, []byte(key), []byte(val), ts) {
		t.Fatalf("fill %s=%s@%d rejected", key, val, ts)
	}
}

// writeBuf builds a redo buffer containing one update per key, as the engine's
// commit path would stage it.
func writeBuf(table uint32, keys ...string) *wal.Buffer {
	var b wal.Buffer
	for _, k := range keys {
		b.Append(wal.RecUpdate, table, []byte(k), []byte("x"))
	}
	return &b
}

func TestHitRequiresCoveringBegin(t *testing.T) {
	c := newTest(1 << 20)
	fill(t, c, 1, "k", "v", 10)
	if _, ok := c.Lookup(1, []byte("k"), 9); ok {
		t.Fatal("begin 9 hit an entry stamped 10 — older snapshot must bypass")
	}
	v, ok := c.Lookup(1, []byte("k"), 10)
	if !ok || string(v) != "v" {
		t.Fatalf("begin 10 got (%q, %v), want hit", v, ok)
	}
	if _, ok := c.Lookup(1, []byte("k"), 99); !ok {
		t.Fatal("begin 99 missed")
	}
	if _, ok := c.Lookup(2, []byte("k"), 99); ok {
		t.Fatal("hit across table ids")
	}
}

func TestWriteWindowBlocksAndDiscardsFills(t *testing.T) {
	c := newTest(1 << 20)
	buf := writeBuf(1, "k")

	// Fill captured before the write window opened: discarded by seq bump.
	tok := c.FillBegin(1, []byte("k"))
	c.BeginWrites(buf)
	c.EndWrites(buf)
	if c.TryFill(tok, 1, []byte("k"), []byte("stale"), 5) {
		t.Fatal("fill captured before a write publication was accepted")
	}

	// Fill attempted while the window is open: rejected by pending.
	tok = c.FillBegin(1, []byte("k"))
	c.BeginWrites(buf)
	if c.TryFill(tok, 1, []byte("k"), []byte("stale"), 5) {
		t.Fatal("fill accepted while writer pending")
	}
	c.EndWrites(buf)

	// Fill captured after the window closed: accepted.
	tok = c.FillBegin(1, []byte("k"))
	if !c.TryFill(tok, 1, []byte("k"), []byte("fresh"), 6) {
		t.Fatal("clean fill rejected")
	}
}

func TestBeginWritesInvalidates(t *testing.T) {
	c := newTest(1 << 20)
	fill(t, c, 1, "a", "va", 3)
	fill(t, c, 1, "b", "vb", 3)
	fill(t, c, 1, "c", "vc", 3)
	buf := writeBuf(1, "a", "b")
	c.BeginWrites(buf)
	c.EndWrites(buf)
	if _, ok := c.Lookup(1, []byte("a"), 99); ok {
		t.Fatal("written key a survived invalidation")
	}
	if _, ok := c.Lookup(1, []byte("b"), 99); ok {
		t.Fatal("written key b survived invalidation")
	}
	if _, ok := c.Lookup(1, []byte("c"), 99); !ok {
		t.Fatal("untouched key c was dropped")
	}
	if got := c.Counts().Invalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
}

func TestDuplicateKeysInOneTransactionBalance(t *testing.T) {
	c := newTest(1 << 20)
	buf := writeBuf(1, "k", "k", "k")
	c.BeginWrites(buf)
	c.EndWrites(buf)
	// All pending marks must have drained: a fresh fill succeeds.
	tok := c.FillBegin(1, []byte("k"))
	if !c.TryFill(tok, 1, []byte("k"), []byte("v"), 1) {
		t.Fatal("pending marks leaked after balanced duplicate-key windows")
	}
}

func TestConcurrentFillKeepsNewerStamp(t *testing.T) {
	c := newTest(1 << 20)
	fill(t, c, 1, "k", "new", 10)
	tok := c.FillBegin(1, []byte("k"))
	if c.TryFill(tok, 1, []byte("k"), []byte("old"), 5) {
		t.Fatal("older-stamped fill replaced a newer entry")
	}
	v, ok := c.Lookup(1, []byte("k"), 20)
	if !ok || string(v) != "new" {
		t.Fatalf("got (%q, %v), want the newer value", v, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	// One entry is ~8+5+96 bytes; budget 3 entries per shard. Use a
	// single-shard cache for a deterministic budget.
	c := New(Config{MaxBytes: 3 * (8 + 5 + entryOverhead), Shards: 1})
	for i := 0; i < 3; i++ {
		fill(t, c, 1, fmt.Sprintf("key-%04d", i), "12345", 1)
	}
	// Touch key-0000 so key-0001 is the LRU victim.
	if _, ok := c.Lookup(1, []byte("key-0000"), 9); !ok {
		t.Fatal("key-0000 missing before eviction")
	}
	fill(t, c, 1, "key-0003", "12345", 1)
	if _, ok := c.Lookup(1, []byte("key-0001"), 9); ok {
		t.Fatal("LRU victim key-0001 survived")
	}
	if _, ok := c.Lookup(1, []byte("key-0000"), 9); !ok {
		t.Fatal("recently used key-0000 evicted")
	}
	if got, want := c.Bytes(), int64(3*(8+5+entryOverhead)); got > want {
		t.Fatalf("bytes %d over budget %d", got, want)
	}
}

func TestCounters(t *testing.T) {
	c := newTest(1 << 20)
	fill(t, c, 1, "k", "v", 1)
	c.Lookup(1, []byte("k"), 9)      // hit
	c.Lookup(1, []byte("absent"), 9) // miss
	c.Peek(1, []byte("k"), 9)        // hit (counted)
	c.Peek(1, []byte("absent2"), 9)  // miss (not counted)
	if got := c.Counts().Hits; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := c.Counts().Misses; got != 1 {
		t.Fatalf("misses = %d, want 1 (Peek misses must not count)", got)
	}
}

// TestRaceStress hammers fills, lookups, and write windows concurrently; run
// with -race it checks the locking, and the final drain check catches leaked
// pending marks.
func TestRaceStress(t *testing.T) {
	c := newTest(1 << 16)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := writeBuf(1, string(keys[seed%len(keys)]), string(keys[(seed+3)%len(keys)]))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(seed+i)%len(keys)]
				switch i % 3 {
				case 0:
					tok := c.FillBegin(1, k)
					c.TryFill(tok, 1, k, []byte("value"), uint64(i))
				case 1:
					c.Lookup(1, k, uint64(i))
				case 2:
					c.BeginWrites(buf)
					c.EndWrites(buf)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every window closed: all keys must be fillable again.
	for _, k := range keys {
		tok := c.FillBegin(1, k)
		if !c.TryFill(tok, 1, k, []byte("final"), 1<<40) {
			t.Fatalf("key %s not fillable after drain — leaked pending mark", k)
		}
	}
}

func TestInvalidationHookAllocs(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	buf := writeBuf(7, "alloc-key-1", "alloc-key-2")
	fill(t, c, 7, "alloc-key-1", "v", 1)
	allocs := testing.AllocsPerRun(100, func() {
		c.BeginWrites(buf)
		c.EndWrites(buf)
	})
	if allocs != 0 {
		t.Fatalf("BeginWrites+EndWrites allocated %.1f/op, want 0", allocs)
	}
}
