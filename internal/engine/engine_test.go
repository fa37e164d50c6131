package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"preemptdb/internal/keys"
	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
)

func newEngine() *Engine { return New(Config{}) }

func TestCreateAndLookupTable(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("users")
	if tab.Name() != "users" || tab.ID() == 0 {
		t.Fatalf("table %q id %d", tab.Name(), tab.ID())
	}
	again := e.CreateTable("users")
	if again != tab {
		t.Fatal("CreateTable must be idempotent")
	}
	got, err := e.Table("users")
	if err != nil || got != tab {
		t.Fatalf("Table: %v", err)
	}
	if _, err := e.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	if err := tx.Insert(tab, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Get(tab, []byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("get own insert: %q %v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.Begin(nil)
	if err := tx2.Update(tab, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	tx3 := e.Begin(nil)
	if v, err := tx3.Get(tab, []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("get after update: %q %v", v, err)
	}
	if err := tx3.Delete(tab, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	tx4 := e.Begin(nil)
	if _, err := tx4.Get(tab, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	tx4.Abort()
}

func TestDuplicateInsert(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	tx.Insert(tab, []byte("k"), []byte("v"))
	tx.Commit()

	tx2 := e.Begin(nil)
	if err := tx2.Insert(tab, []byte("k"), []byte("v2")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	tx2.Abort()
}

func TestInsertAfterDeleteSameKey(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	tx.Insert(tab, []byte("k"), []byte("v1"))
	tx.Commit()
	tx2 := e.Begin(nil)
	tx2.Delete(tab, []byte("k"))
	tx2.Commit()
	tx3 := e.Begin(nil)
	if err := tx3.Insert(tab, []byte("k"), []byte("v2")); err != nil {
		t.Fatalf("re-insert over tombstone: %v", err)
	}
	tx3.Commit()
	tx4 := e.Begin(nil)
	if v, err := tx4.Get(tab, []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("got %q %v", v, err)
	}
}

func TestUpdateMissing(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	if err := tx.Update(tab, []byte("nope"), []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Delete(tab, []byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	tx.Abort()
}

func TestPutUpsert(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	if err := tx.Put(tab, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(tab, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2 := e.Begin(nil)
	if v, _ := tx2.Get(tab, []byte("k")); string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
}

func TestAbortRollsBack(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	tx.Insert(tab, []byte("k"), []byte("v"))
	tx.Abort()
	tx.Abort() // second abort is a no-op

	tx2 := e.Begin(nil)
	if _, err := tx2.Get(tab, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
	if e.Aborts() != 1 {
		t.Fatalf("aborts = %d", e.Aborts())
	}
}

func TestScanVisibilityAndOrder(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	setup := e.Begin(nil)
	for i := 0; i < 100; i++ {
		setup.Insert(tab, keys.Uint32(nil, uint32(i)), []byte(fmt.Sprintf("v%d", i)))
	}
	setup.Commit()

	// Delete evens; an older snapshot must still see them.
	old := e.Begin(nil)
	del := e.Begin(nil)
	for i := 0; i < 100; i += 2 {
		del.Delete(tab, keys.Uint32(nil, uint32(i)))
	}
	del.Commit()

	countRows := func(tx *Txn) int {
		n := 0
		tx.Scan(tab, nil, nil, func(k, v []byte) bool { n++; return true })
		return n
	}
	if n := countRows(old); n != 100 {
		t.Fatalf("old snapshot sees %d rows", n)
	}
	fresh := e.Begin(nil)
	if n := countRows(fresh); n != 50 {
		t.Fatalf("fresh snapshot sees %d rows", n)
	}

	// Bounded scan in order.
	var got []uint32
	fresh.Scan(tab, keys.Uint32(nil, 10), keys.Uint32(nil, 20), func(k, v []byte) bool {
		id, _ := keys.DecodeUint32(k)
		got = append(got, id)
		return true
	})
	want := []uint32{11, 13, 15, 17, 19}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestSecondaryIndex(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("customers")
	// Index rows by their value's first byte ("last name initial").
	tab.CreateIndex("byinitial", func(pk, row []byte) []byte {
		return keys.String(nil, string(row[:1]))
	})
	tx := e.Begin(nil)
	tx.Insert(tab, []byte("c1"), []byte("smith"))
	tx.Insert(tab, []byte("c2"), []byte("smythe"))
	tx.Insert(tab, []byte("c3"), []byte("jones"))
	tx.Commit()

	r := e.Begin(nil)
	var rows []string
	from := keys.String(nil, "s")
	r.ScanIndex(tab, "byinitial", from, keys.PrefixEnd(from), func(k, v []byte) bool {
		rows = append(rows, string(v))
		return true
	})
	if len(rows) != 2 {
		t.Fatalf("index scan rows = %v", rows)
	}
	if err := r.ScanIndex(tab, "missing", nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestSecondaryIndexSkipsAborted(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	tab.CreateIndex("all", func(pk, row []byte) []byte { return append([]byte(nil), pk...) })
	tx := e.Begin(nil)
	tx.Insert(tab, []byte("k"), []byte("v"))
	tx.Abort()
	r := e.Begin(nil)
	n := 0
	r.ScanIndex(tab, "all", nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("aborted row visible through index: %d", n)
	}
}

func TestWriteConflictSurfaced(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	setup := e.Begin(nil)
	setup.Insert(tab, []byte("k"), []byte("v"))
	setup.Commit()

	a := e.Begin(nil)
	b := e.Begin(nil)
	if err := a.Update(tab, []byte("k"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := b.Update(tab, []byte("k"), []byte("b"))
	if !IsConflict(err) {
		t.Fatalf("err = %v", err)
	}
	b.Abort()
	a.Commit()
}

func TestCommitAfterCommitErrors(t *testing.T) {
	e := newEngine()
	tx := e.Begin(nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, mvcc.ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoggingAndRecovery(t *testing.T) {
	var log bytes.Buffer
	e := New(Config{LogSink: &log})
	tab := e.CreateTable("t")
	tab.CreateIndex("mirror", func(pk, row []byte) []byte { return append([]byte(nil), pk...) })

	tx := e.Begin(nil)
	tx.Insert(tab, []byte("a"), []byte("1"))
	tx.Insert(tab, []byte("b"), []byte("2"))
	tx.Commit()
	tx2 := e.Begin(nil)
	tx2.Update(tab, []byte("a"), []byte("1b"))
	tx2.Delete(tab, []byte("b"))
	tx2.Commit()
	// An aborted transaction must not appear in the log.
	tx3 := e.Begin(nil)
	tx3.Insert(tab, []byte("ghost"), []byte("boo"))
	tx3.Abort()
	e.Log().Flush()

	// Rebuild a fresh engine from the log.
	e2 := New(Config{})
	tab2 := e2.CreateTable("t")
	tab2.CreateIndex("mirror", func(pk, row []byte) []byte { return append([]byte(nil), pk...) })
	if _, err := e2.Recover(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	r := e2.Begin(nil)
	if v, err := r.Get(tab2, []byte("a")); err != nil || string(v) != "1b" {
		t.Fatalf("recovered a = %q %v", v, err)
	}
	if _, err := r.Get(tab2, []byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted row recovered: %v", err)
	}
	if _, err := r.Get(tab2, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted txn recovered")
	}
	// The secondary index must be rebuilt too.
	n := 0
	r.ScanIndex(tab2, "mirror", nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("index rows after recovery = %d", n)
	}
	// New commits must get timestamps above recovered ones.
	w := e2.Begin(nil)
	w.Insert(tab2, []byte("c"), []byte("3"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r2 := e2.Begin(nil)
	if v, err := r2.Get(tab2, []byte("c")); err != nil || string(v) != "3" {
		t.Fatalf("post-recovery write: %q %v", v, err)
	}
}

func TestReadOnlyCommitNotLogged(t *testing.T) {
	var log bytes.Buffer
	e := New(Config{LogSink: &log})
	tab := e.CreateTable("t")
	tx := e.Begin(nil)
	tx.Get(tab, []byte("x"))
	tx.Commit()
	e.Log().Flush()
	if log.Len() != 0 {
		t.Fatalf("read-only txn wrote %d log bytes", log.Len())
	}
}

func TestVacuumTrimsChains(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("t")
	setup := e.Begin(nil)
	setup.Insert(tab, []byte("k"), []byte("v0"))
	setup.Commit()
	for i := 1; i <= 10; i++ {
		tx := e.Begin(nil)
		tx.Update(tab, []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		tx.Commit()
	}
	reclaimed := e.Vacuum(nil)
	if reclaimed != 10 {
		t.Fatalf("reclaimed %d versions, want 10", reclaimed)
	}
	r := e.Begin(nil)
	if v, _ := r.Get(tab, []byte("k")); string(v) != "v10" {
		t.Fatalf("latest lost: %q", v)
	}
	r.Abort()

	// A long reader pins its snapshot: the version it reads survives every
	// vacuum until it finishes, and only then is the chain reclaimable.
	long := e.Begin(pcontext.Detached())
	for i := 11; i <= 15; i++ {
		tx := e.Begin(nil)
		tx.Update(tab, []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		tx.Commit()
	}
	e.Vacuum(nil)
	if v, _ := long.Get(tab, []byte("k")); string(v) != "v10" {
		t.Fatalf("vacuum reclaimed under a long reader: read %q, want v10", v)
	}
	long.Abort()
	if reclaimed := e.Vacuum(nil); reclaimed != 5 {
		t.Fatalf("reclaimed %d versions after the reader finished, want 5", reclaimed)
	}
}

func TestAttachContextIdempotent(t *testing.T) {
	e := newEngine()
	ctx := pcontext.Detached()
	e.AttachContext(ctx)
	buf := ctx.CLS().Get(pcontext.SlotLog)
	e.AttachContext(ctx)
	if ctx.CLS().Get(pcontext.SlotLog) != buf {
		t.Fatal("AttachContext replaced CLS state")
	}
	e.AttachContext(nil) // must not panic
}

func TestConcurrentTransfersThroughEngine(t *testing.T) {
	e := newEngine()
	tab := e.CreateTable("accounts")
	const n = 4
	setup := e.Begin(nil)
	for i := 0; i < n; i++ {
		setup.Insert(tab, keys.Uint32(nil, uint32(i)), []byte{100})
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				from := uint32(x % n)
				to := uint32((x >> 7) % n)
				if from == to {
					continue
				}
				tx := e.Begin(nil)
				fv, err1 := tx.Get(tab, keys.Uint32(nil, from))
				tv, err2 := tx.Get(tab, keys.Uint32(nil, to))
				if err1 != nil || err2 != nil || fv[0] == 0 {
					tx.Abort()
					continue
				}
				if tx.Update(tab, keys.Uint32(nil, from), []byte{fv[0] - 1}) != nil ||
					tx.Update(tab, keys.Uint32(nil, to), []byte{tv[0] + 1}) != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	check := e.Begin(nil)
	total := 0
	for i := 0; i < n; i++ {
		v, err := check.Get(tab, keys.Uint32(nil, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		total += int(v[0])
	}
	if total != n*100 {
		t.Fatalf("total = %d", total)
	}
	if e.Commits() == 0 {
		t.Fatal("no commits recorded")
	}
}

func TestSerializableEngineMode(t *testing.T) {
	e := New(Config{Isolation: mvcc.Serializable})
	tab := e.CreateTable("t")
	setup := e.Begin(nil)
	setup.Insert(tab, []byte("x"), []byte("1"))
	setup.Insert(tab, []byte("y"), []byte("1"))
	setup.Commit()

	a := e.Begin(nil)
	b := e.Begin(nil)
	a.Get(tab, []byte("x"))
	a.Get(tab, []byte("y"))
	b.Get(tab, []byte("x"))
	b.Get(tab, []byte("y"))
	a.Update(tab, []byte("x"), []byte("a"))
	b.Update(tab, []byte("y"), []byte("b"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !IsConflict(err) {
		t.Fatalf("write skew admitted: %v", err)
	}
}

func TestKWayContextPoolingIsolated(t *testing.T) {
	// Every context of a core owns its own pooled state: attaching all
	// contexts of one core must produce distinct WAL buffers, snapshot
	// slots, and cached transactions, and each context's pooled Txn must be
	// reused by — and only by — that context.
	e := newEngine()
	tab := e.CreateTable("kv")
	core := pcontext.NewCore(0, 4)
	txns := make([]*Txn, core.NumContexts())
	for i := 0; i < core.NumContexts(); i++ {
		ctx := core.Context(i)
		e.AttachContext(ctx)
		tx := e.Begin(ctx)
		for j := 0; j < i; j++ {
			if tx == txns[j] {
				t.Fatalf("contexts %d and %d share a pooled Txn", i, j)
			}
		}
		txns[i] = tx
		if err := tx.Insert(tab, []byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tx := range txns {
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// A finished pooled Txn is released back to its own context's CLS
	// exactly once: the next Begin on the same context reuses it, while the
	// siblings still get theirs.
	for i := 0; i < core.NumContexts(); i++ {
		tx := e.Begin(core.Context(i))
		if tx != txns[i] {
			t.Fatalf("context %d did not reuse its pooled Txn", i)
		}
		tx.Abort()
	}
}
