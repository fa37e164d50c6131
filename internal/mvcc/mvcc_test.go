package mvcc

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func begin(o *Oracle, iso IsolationLevel) *Txn { return o.Begin(nil, iso, nil) }

func mustCommit(t *testing.T, tx *Txn) uint64 {
	t.Helper()
	cts, err := tx.Commit(nil)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return cts
}

func TestReadYourOwnWrites(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	tx := begin(o, SnapshotIsolation)
	if _, ok := tx.Read(rec); ok {
		t.Fatal("empty record readable")
	}
	if err := tx.Update(rec, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	data, ok := tx.Read(rec)
	if !ok || string(data) != "v1" {
		t.Fatalf("own write invisible: %q %v", data, ok)
	}
	// Second write folds into the same version.
	if err := tx.Update(rec, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if tx.NumWrites() != 1 {
		t.Fatalf("writes = %d, want 1 folded", tx.NumWrites())
	}
	data, _ = tx.Read(rec)
	if string(data) != "v2" {
		t.Fatalf("fold failed: %q", data)
	}
	mustCommit(t, tx)
}

func TestUncommittedInvisible(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	writer := begin(o, SnapshotIsolation)
	writer.Update(rec, []byte("secret"))
	reader := begin(o, SnapshotIsolation)
	if _, ok := reader.Read(rec); ok {
		t.Fatal("in-flight write visible to another txn")
	}
	mustCommit(t, writer)
	// Still invisible: reader began before the commit.
	if _, ok := reader.Read(rec); ok {
		t.Fatal("snapshot read saw later commit")
	}
	// A new transaction sees it.
	later := begin(o, SnapshotIsolation)
	data, ok := later.Read(rec)
	if !ok || string(data) != "secret" {
		t.Fatal("committed write invisible to later txn")
	}
}

func TestSnapshotStability(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(rec, []byte("old"))
	mustCommit(t, setup)

	reader := begin(o, SnapshotIsolation)
	w := begin(o, SnapshotIsolation)
	w.Update(rec, []byte("new"))
	mustCommit(t, w)

	for i := 0; i < 3; i++ {
		data, ok := reader.Read(rec)
		if !ok || string(data) != "old" {
			t.Fatalf("snapshot unstable: %q %v", data, ok)
		}
	}
}

func TestReadCommittedSeesLatest(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(rec, []byte("old"))
	mustCommit(t, setup)

	rc := begin(o, ReadCommitted)
	if d, _ := rc.Read(rec); string(d) != "old" {
		t.Fatalf("got %q", d)
	}
	w := begin(o, SnapshotIsolation)
	w.Update(rec, []byte("new"))
	mustCommit(t, w)
	if d, _ := rc.Read(rec); string(d) != "new" {
		t.Fatalf("read committed stuck at %q", d)
	}
}

func TestWriteWriteConflictInFlight(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	a := begin(o, SnapshotIsolation)
	b := begin(o, SnapshotIsolation)
	if err := a.Update(rec, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(rec, []byte("b")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want write conflict", err)
	}
	b.Abort()
	mustCommit(t, a)
}

func TestWriteWriteConflictCommittedNewer(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	base := begin(o, SnapshotIsolation)
	base.Update(rec, []byte("base"))
	mustCommit(t, base)

	a := begin(o, SnapshotIsolation) // snapshot before b's commit
	b := begin(o, SnapshotIsolation)
	b.Update(rec, []byte("b"))
	mustCommit(t, b)
	if err := a.Update(rec, []byte("a")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want write conflict (lost update)", err)
	}
}

func TestUpdateAfterConflictingWriterAborts(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	a := begin(o, SnapshotIsolation)
	a.Update(rec, []byte("a"))
	a.Abort()
	b := begin(o, SnapshotIsolation)
	if err := b.Update(rec, []byte("b")); err != nil {
		t.Fatalf("update over aborted head: %v", err)
	}
	mustCommit(t, b)
	r := begin(o, SnapshotIsolation)
	if d, ok := r.Read(rec); !ok || string(d) != "b" {
		t.Fatalf("got %q %v", d, ok)
	}
}

// TestUpdateSeesPastAbortedHead: an aborted version left at the head (an
// unlink that lost its race leaves one there) must not hide a committed
// version newer than the updater's snapshot. First-updater-wins still
// refuses the write; otherwise the newer commit's update would be lost.
func TestUpdateSeesPastAbortedHead(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(rec, []byte("v0"))
	mustCommit(t, setup)
	old := begin(o, SnapshotIsolation)
	if d, ok := old.Read(rec); !ok || string(d) != "v0" {
		t.Fatalf("old snapshot reads %q %v", d, ok)
	}
	newer := begin(o, SnapshotIsolation)
	newer.Update(rec, []byte("v2"))
	mustCommit(t, newer)
	dead := &Version{data: []byte("dead")}
	dead.cts.Store(ctsAborted)
	dead.prev.Store(rec.head.Load())
	rec.head.Store(dead)

	if err := old.Update(rec, []byte("v1")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("update from a snapshot older than the committed version under an aborted head = %v, want ErrWriteConflict", err)
	}
	old.Abort()
	fresh := begin(o, SnapshotIsolation)
	if err := fresh.Update(rec, []byte("v3")); err != nil {
		t.Fatalf("update from a snapshot covering every commit: %v", err)
	}
	mustCommit(t, fresh)
	r := begin(o, SnapshotIsolation)
	if d, ok := r.Read(rec); !ok || string(d) != "v3" {
		t.Fatalf("got %q %v", d, ok)
	}
}

func TestAbortUnlinksHead(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(rec, []byte("keep"))
	mustCommit(t, setup)
	tx := begin(o, SnapshotIsolation)
	tx.Update(rec, []byte("drop"))
	if ChainLength(rec) != 2 {
		t.Fatalf("chain = %d", ChainLength(rec))
	}
	tx.Abort()
	if ChainLength(rec) != 1 {
		t.Fatalf("aborted version not unlinked: chain = %d", ChainLength(rec))
	}
	r := begin(o, SnapshotIsolation)
	if d, _ := r.Read(rec); string(d) != "keep" {
		t.Fatalf("got %q", d)
	}
}

func TestTombstoneDelete(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(rec, []byte("alive"))
	mustCommit(t, setup)

	reader := begin(o, SnapshotIsolation)
	del := begin(o, SnapshotIsolation)
	if err := del.Delete(rec); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, del)

	// Old snapshot still sees the row; new snapshot sees the delete.
	if _, ok := reader.Read(rec); !ok {
		t.Fatal("old snapshot lost the row")
	}
	after := begin(o, SnapshotIsolation)
	if _, ok := after.Read(rec); ok {
		t.Fatal("deleted row visible")
	}
}

func TestTxnDoneErrors(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	tx := begin(o, SnapshotIsolation)
	mustCommit(t, tx)
	if err := tx.Update(rec, []byte("x")); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("update after commit: %v", err)
	}
	if _, err := tx.Commit(nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestCommitLogHookReceivesCTS(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	tx := begin(o, SnapshotIsolation)
	tx.Update(rec, []byte("v"))
	var logged uint64
	cts, err := tx.Commit(func(c uint64) error { logged = c; return nil })
	if err != nil || logged != cts || cts == 0 {
		t.Fatalf("cts=%d logged=%d err=%v", cts, logged, err)
	}
}

func TestCommitLogHookFailureAborts(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	tx := begin(o, SnapshotIsolation)
	tx.Update(rec, []byte("v"))
	sentinel := errors.New("disk full")
	if _, err := tx.Commit(func(uint64) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	r := begin(o, SnapshotIsolation)
	if _, ok := r.Read(rec); ok {
		t.Fatal("failed commit left visible data")
	}
}

func TestSerializableReadValidation(t *testing.T) {
	// Classic write-skew: two txns each read both records and update the
	// other one. Under SI both commit; under our serializable mode the
	// second must fail validation.
	o := NewOracle()
	r1, r2 := NewRecord(), NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(r1, []byte("1"))
	setup.Update(r2, []byte("1"))
	mustCommit(t, setup)

	a := begin(o, Serializable)
	b := begin(o, Serializable)
	a.Read(r1)
	a.Read(r2)
	b.Read(r1)
	b.Read(r2)
	if err := a.Update(r1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(r2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(nil); err != nil {
		t.Fatalf("first committer must succeed: %v", err)
	}
	if _, err := b.Commit(nil); !errors.Is(err, ErrReadValidation) {
		t.Fatalf("write skew admitted: err = %v", err)
	}
}

func TestSerializableReadOwnWriteValidates(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	setup := begin(o, Serializable)
	setup.Update(rec, []byte("0"))
	mustCommit(t, setup)

	tx := begin(o, Serializable)
	tx.Read(rec)
	tx.Update(rec, []byte("1"))
	tx.Read(rec) // reads own in-flight version
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("read-own-write failed validation: %v", err)
	}
}

func TestSerializableWriteSkewUnderSIAdmitted(t *testing.T) {
	// Control: the same schedule under plain SI commits both ways,
	// demonstrating the anomaly serializable mode removes.
	o := NewOracle()
	r1, r2 := NewRecord(), NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(r1, []byte("1"))
	setup.Update(r2, []byte("1"))
	mustCommit(t, setup)

	a := begin(o, SnapshotIsolation)
	b := begin(o, SnapshotIsolation)
	a.Read(r1)
	a.Read(r2)
	b.Read(r1)
	b.Read(r2)
	a.Update(r1, []byte("a"))
	b.Update(r2, []byte("b"))
	mustCommit(t, a)
	mustCommit(t, b)
}

func TestCommitAtomicityUnderConcurrency(t *testing.T) {
	// A transaction writes two records; concurrent readers must observe
	// either both updates or neither — the indirect-commit-stamp property.
	o := NewOracle()
	r1, r2 := NewRecord(), NewRecord()
	setup := begin(o, SnapshotIsolation)
	setup.Update(r1, u64(0))
	setup.Update(r2, u64(0))
	mustCommit(t, setup)

	stop := make(chan struct{})
	var torn atomic.Int64
	var rwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := begin(o, SnapshotIsolation)
				d1, ok1 := r.Read(r1)
				d2, ok2 := r.Read(r2)
				if !ok1 || !ok2 {
					torn.Add(1)
					return
				}
				if binary.LittleEndian.Uint64(d1) != binary.LittleEndian.Uint64(d2) {
					torn.Add(1)
					return
				}
			}
		}()
	}
	for i := uint64(1); i <= 2000; i++ {
		for {
			w := begin(o, SnapshotIsolation)
			if w.Update(r1, u64(i)) != nil || w.Update(r2, u64(i)) != nil {
				w.Abort()
				continue
			}
			if _, err := w.Commit(nil); err == nil {
				break
			}
		}
	}
	close(stop)
	rwg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestConcurrentCountersConserveTotal(t *testing.T) {
	// Bank-transfer invariant: concurrent transfers between accounts keep
	// the total constant; SI write-conflict aborts must not corrupt state.
	o := NewOracle()
	const accounts = 8
	recs := make([]*Record, accounts)
	setup := begin(o, SnapshotIsolation)
	for i := range recs {
		recs[i] = NewRecord()
		setup.Update(recs[i], u64(100))
	}
	mustCommit(t, setup)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < 2000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				from := int(x % accounts)
				to := int((x >> 8) % accounts)
				if from == to {
					continue
				}
				tx := begin(o, SnapshotIsolation)
				df, ok1 := tx.Read(recs[from])
				dt, ok2 := tx.Read(recs[to])
				if !ok1 || !ok2 {
					tx.Abort()
					continue
				}
				f := binary.LittleEndian.Uint64(df)
				g := binary.LittleEndian.Uint64(dt)
				if f == 0 {
					tx.Abort()
					continue
				}
				if tx.Update(recs[from], u64(f-1)) != nil || tx.Update(recs[to], u64(g+1)) != nil {
					tx.Abort()
					continue
				}
				tx.Commit(nil)
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	check := begin(o, SnapshotIsolation)
	total := uint64(0)
	for _, r := range recs {
		d, ok := check.Read(r)
		if !ok {
			t.Fatal("account vanished")
		}
		total += binary.LittleEndian.Uint64(d)
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d", total, accounts*100)
	}
}

func TestMinActiveBeginAndTrim(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	slot := o.RegisterSlot()

	// Build a 5-version chain.
	for i := 0; i < 5; i++ {
		tx := begin(o, SnapshotIsolation)
		tx.Update(rec, u64(uint64(i)))
		mustCommit(t, tx)
	}
	if ChainLength(rec) != 5 {
		t.Fatalf("chain = %d", ChainLength(rec))
	}

	// An active reader at an old snapshot pins versions.
	reader := o.Begin(nil, SnapshotIsolation, slot)
	oldMin := o.MinActiveBegin()
	if oldMin != reader.Begin() {
		t.Fatalf("min active = %d, want %d", oldMin, reader.Begin())
	}
	for i := 5; i < 8; i++ {
		tx := begin(o, SnapshotIsolation)
		tx.Update(rec, u64(uint64(i)))
		mustCommit(t, tx)
	}
	trimmed := Trim(rec, o.MinActiveBegin())
	// The version visible at the reader's snapshot must survive.
	if d, ok := reader.Read(rec); !ok || binary.LittleEndian.Uint64(d) != 4 {
		t.Fatalf("pinned version lost: %v %v", d, ok)
	}
	_ = trimmed

	// Release the reader: everything but the newest version is trimmable.
	mustCommit(t, reader)
	n := Trim(rec, o.MinActiveBegin())
	if n == 0 {
		t.Fatal("nothing trimmed after reader release")
	}
	if ChainLength(rec) != 1 {
		t.Fatalf("chain = %d after trim, want 1", ChainLength(rec))
	}
	final := begin(o, SnapshotIsolation)
	if d, ok := final.Read(rec); !ok || binary.LittleEndian.Uint64(d) != 7 {
		t.Fatalf("newest version lost: %v %v", d, ok)
	}
}

func TestTrimEmptyAndSingle(t *testing.T) {
	rec := NewRecord()
	if Trim(rec, 100) != 0 {
		t.Fatal("trim on empty record")
	}
	o := NewOracle()
	tx := begin(o, SnapshotIsolation)
	tx.Update(rec, []byte("only"))
	mustCommit(t, tx)
	if Trim(rec, o.Clock()) != 0 {
		t.Fatal("single version must not be trimmed")
	}
}

func TestTrimKeepsInFlightHead(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	a := begin(o, SnapshotIsolation)
	a.Update(rec, []byte("v1"))
	mustCommit(t, a)
	b := begin(o, SnapshotIsolation)
	b.Update(rec, []byte("v2"))
	// In-flight head: the committed v1 beneath it must survive (it is the
	// version any reader, and b's own abort path, still needs).
	Trim(rec, o.Clock())
	b.Abort()
	r := begin(o, SnapshotIsolation)
	if d, ok := r.Read(rec); !ok || string(d) != "v1" {
		t.Fatalf("got %q %v", d, ok)
	}
}

func TestIsolationLevelString(t *testing.T) {
	if SnapshotIsolation.String() != "snapshot" || ReadCommitted.String() != "read-committed" ||
		Serializable.String() != "serializable" {
		t.Fatal("bad strings")
	}
	if IsolationLevel(9).String() == "" {
		t.Fatal("unknown level must format")
	}
}

func TestOracleClockMonotonic(t *testing.T) {
	o := NewOracle()
	rec := NewRecord()
	var last uint64
	for i := 0; i < 100; i++ {
		tx := begin(o, SnapshotIsolation)
		tx.Update(rec, []byte("x"))
		cts := mustCommit(t, tx)
		if cts <= last {
			t.Fatalf("cts %d not monotonic after %d", cts, last)
		}
		last = cts
	}
}
