package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"preemptdb/internal/hotcache"
	"preemptdb/internal/metrics"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
)

func newCachedEngine(t *testing.T) (*Engine, *hotcache.Cache) {
	t.Helper()
	cache := hotcache.New(hotcache.Config{MaxBytes: 1 << 20})
	e := New(Config{Metrics: metrics.NewRegistry(), Cache: cache})
	return e, cache
}

func mustPut(t *testing.T, e *Engine, ctx *pcontext.Context, tbl *Table, key, val []byte) {
	t.Helper()
	tx := e.Begin(ctx)
	if err := tx.Put(tbl, key, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readOnce(t *testing.T, e *Engine, ctx *pcontext.Context, tbl *Table, key []byte) []byte {
	t.Helper()
	tx := e.Begin(ctx)
	defer tx.Abort()
	v, err := tx.Get(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCacheReadThrough exercises the miss-fill-hit cycle and commit-time
// invalidation through the engine's Get path.
func TestCacheReadThrough(t *testing.T) {
	e, cache := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))

	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("first read = %q", v)
	}
	if cache.Counts().Misses == 0 {
		t.Fatal("first read did not count a miss")
	}
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("second read = %q", v)
	}
	if cache.Counts().Hits == 0 {
		t.Fatal("second read did not hit the cache")
	}

	// Commit-time invalidation: the writer removes the entry, a fresh read
	// refills with the new value.
	mustPut(t, e, ctx, tbl, key, []byte("v2"))
	if cache.Counts().Invalidations == 0 {
		t.Fatal("update did not invalidate the cached entry")
	}
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("post-update read = %q, want v2", v)
	}
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("post-update cached read = %q, want v2", v)
	}
}

// TestCacheOldSnapshotBypasses: a transaction whose snapshot predates the
// cached version must read its own (older) version from MVCC, not the cache,
// and must not poison the cache for newer readers.
func TestCacheOldSnapshotBypasses(t *testing.T) {
	e, _ := newCachedEngine(t)
	ctx := pcontext.Detached()
	old := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))

	oldTx := e.Begin(old) // snapshot at v1
	mustPut(t, e, ctx, tbl, key, []byte("v2"))
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) { // fill v2
		t.Fatalf("fresh read = %q", v)
	}
	v, err := oldTx.Get(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("old snapshot read = %q, want v1 (stale cache hit?)", v)
	}
	oldTx.Abort()
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("fresh read after old-snapshot bypass = %q, want v2", v)
	}
}

// TestCacheOwnWritesBypass: once a transaction has buffered writes, its reads
// must come from MVCC (own uncommitted values win over cached committed ones).
func TestCacheOwnWritesBypass(t *testing.T) {
	e, _ := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))
	readOnce(t, e, ctx, tbl, key) // fill v1

	tx := e.Begin(ctx)
	if err := tx.Update(tbl, key, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Get(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("mine")) {
		t.Fatalf("own-write read = %q, want the uncommitted value", v)
	}
	tx.Abort()
}

// TestCacheSerializableBypasses: serializable reads must register in the read
// set for commit validation, so they never consult the cache.
func TestCacheSerializableBypasses(t *testing.T) {
	e, cache := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))
	readOnce(t, e, ctx, tbl, key) // fill
	hits := cache.Counts().Hits

	tx := e.BeginIso(pcontext.Detached(), mvcc.Serializable)
	if _, err := tx.Get(tbl, key); err != nil {
		t.Fatal(err)
	}
	// Concurrent write invalidates the read set; validation must catch it.
	mustPut(t, e, ctx, tbl, key, []byte("v2"))
	if err := tx.Commit(); !IsConflict(err) {
		t.Fatalf("serializable commit after conflicting write: %v, want validation failure", err)
	}
	if cache.Counts().Hits != hits {
		t.Fatal("serializable read hit the cache")
	}
}

// TestCacheTwoPCInvalidation: a prepared participant's write window blocks
// fills for the whole in-doubt span, and resolution publishes + invalidates.
func TestCacheTwoPCInvalidation(t *testing.T) {
	e, _ := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))
	readOnce(t, e, ctx, tbl, key) // fill v1

	w := e.Begin(pcontext.Detached())
	if err := w.Update(tbl, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.PrepareCommit(77); err != nil {
		t.Fatal(err)
	}
	// In doubt: the prepared version is invisible, the old entry is gone, and
	// fills are blocked — reads serve v1 from MVCC every time.
	for i := 0; i < 2; i++ {
		if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v1")) {
			t.Fatalf("in-doubt read = %q, want v1", v)
		}
	}
	if err := w.ResolveCommit(); err != nil {
		t.Fatal(err)
	}
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("post-resolve read = %q, want v2", v)
	}
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("post-resolve cached read = %q, want v2", v)
	}
}

// TestCacheTwoPCAbortReleasesWindow: ResolveAbort must close the write window
// so later fills work, and readers keep the old value throughout.
func TestCacheTwoPCAbortReleasesWindow(t *testing.T) {
	e, cache := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key := []byte("k")
	mustPut(t, e, ctx, tbl, key, []byte("v1"))

	w := e.Begin(pcontext.Detached())
	if err := w.Update(tbl, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.PrepareCommit(78); err != nil {
		t.Fatal(err)
	}
	w.ResolveAbort()

	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("post-abort read = %q, want v1", v)
	}
	hits := cache.Counts().Hits
	if v := readOnce(t, e, ctx, tbl, key); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("post-abort second read = %q, want v1", v)
	}
	if cache.Counts().Hits == hits {
		t.Fatal("fill still blocked after ResolveAbort — leaked write window")
	}
}

// TestCommitAllocsWithCache guards the acceptance bar: the pooled
// Update+Commit cycle must stay allocation-free with the cache enabled (the
// invalidation hooks run on every writing commit).
func TestCommitAllocsWithCache(t *testing.T) {
	e, _ := newCachedEngine(t)
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key, val := []byte("key"), []byte("value")
	mustPut(t, e, ctx, tbl, key, val)
	readOnce(t, e, ctx, tbl, key) // keep an entry resident so invalidation does real work
	commit := func() {
		tx := e.Begin(ctx)
		if err := tx.Update(tbl, key, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		commit()
	}
	if avg := testing.AllocsPerRun(256, commit); avg >= 1 {
		t.Fatalf("cached commit allocates %.2f allocs/op, want 0", avg)
	}
}

// TestCreateTableRacesCatalogReaders: CreateTable publishes a new catalog
// while other goroutines look tables up by name, read through the hot-key
// cache and walk the table list. Every reader sees a table exactly when its
// creation has returned, and by the same identity.
func TestCreateTableRacesCatalogReaders(t *testing.T) {
	e, _ := newCachedEngine(t)
	ctx := pcontext.Detached()
	hot := e.CreateTable("hot")
	mustPut(t, e, ctx, hot, []byte("k"), []byte("v"))
	readOnce(t, e, ctx, hot, []byte("k")) // fill the cache

	const tables = 200
	created := make(chan *Table, tables)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := e.CachedGet("hot", []byte("k")); !ok || string(v) != "v" {
					t.Errorf("CachedGet(hot) = %q, %v", v, ok)
					return
				}
				if tab, err := e.Table("hot"); err != nil || tab != hot {
					t.Errorf("Table(hot) = %p, %v, want %p", tab, err, hot)
					return
				}
				for i, tab := range e.tablesByID() {
					if tab.ID() != uint32(i+1) {
						t.Errorf("table %q has id %d at position %d", tab.Name(), tab.ID(), i)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < tables; i++ {
			created <- e.CreateTable(fmt.Sprintf("t%d", i))
		}
		close(created)
	}()
	for tab := range created {
		if got, err := e.Table(tab.Name()); err != nil || got != tab {
			t.Errorf("Table(%q) after CreateTable = %p, %v, want %p", tab.Name(), got, err, tab)
		}
		if again := e.CreateTable(tab.Name()); again != tab {
			t.Errorf("CreateTable(%q) twice made two tables", tab.Name())
		}
	}
	close(stop)
	wg.Wait()
	if n := len(e.tablesByID()); n != tables+1 {
		t.Fatalf("%d tables, want %d", n, tables+1)
	}
}
