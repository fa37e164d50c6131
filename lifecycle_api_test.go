package preemptdb

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func lifecycleDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("inv")
	if err := db.Run(func(tx *Txn) error {
		val := make([]byte, 32)
		for i := 0; i < rows; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i))
			if err := tx.Insert("inv", k[:], val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDeadlineUnwindsMidScan: a deadline set mid-flight cancels a running
// analytical transaction at its next poll; the typed error reaches the caller,
// the per-reason counter ticks, and the database keeps serving.
func TestDeadlineUnwindsMidScan(t *testing.T) {
	db := lifecycleDB(t, 20000)

	scans := 0
	err := db.ExecOpts(TxnOptions{Deadline: time.Now().Add(2 * time.Millisecond)}, func(tx *Txn) error {
		for {
			if err := tx.Scan("inv", nil, nil, func(k, v []byte) bool { return true }); err != nil {
				return err
			}
			scans++
		}
	})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("ExecOpts with a deadline: err = %v", err)
	}
	if st := db.Stats(); st.AbortsDeadline < 1 {
		t.Fatalf("AbortsDeadline = %d", st.AbortsDeadline)
	}
	// The unwound transaction released its resources: the same worker context
	// serves a fresh full scan to completion.
	n := 0
	if err := db.Run(func(tx *Txn) error {
		return tx.Scan("inv", nil, nil, func(k, v []byte) bool { n++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("scan after deadline abort saw %d rows", n)
	}
}

// TestSubmitOptsCancelMidFlight: Pending.Cancel from the submitting goroutine
// stops a running transaction with ErrCanceled; Cancel is idempotent.
func TestSubmitOptsCancelMidFlight(t *testing.T) {
	db := lifecycleDB(t, 5000)

	started := make(chan struct{})
	var once sync.Once
	p, err := db.SubmitOpts(TxnOptions{Priority: Low}, func(tx *Txn) error {
		for {
			if err := tx.Scan("inv", nil, nil, func(k, v []byte) bool {
				once.Do(func() { close(started) })
				return true
			}); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("transaction never started")
	}
	p.Cancel()
	p.Cancel() // idempotent
	if err := p.Wait(); !IsCanceled(err) {
		t.Fatalf("Wait = %v", err)
	}
	if st := db.Stats(); st.AbortsCanceled < 1 {
		t.Fatalf("AbortsCanceled = %d", st.AbortsCanceled)
	}
	if err := db.Run(func(tx *Txn) error { return nil }); err != nil {
		t.Fatalf("db unusable after cancel: %v", err)
	}
}

// TestQueuedRequestShedAtDispatch: a request whose deadline expires while it
// waits behind a long transaction is dropped at dispatch without executing.
func TestQueuedRequestShedAtDispatch(t *testing.T) {
	db := openTest(t, Config{Workers: 1})

	started := make(chan struct{})
	gate := make(chan struct{})
	if _, err := db.SubmitOpts(TxnOptions{Priority: Low}, func(tx *Txn) error {
		close(started)
		<-gate
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Bool
	p, err := db.SubmitOpts(TxnOptions{Priority: Low, Timeout: 2 * time.Millisecond}, func(tx *Txn) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // deadline passes while queued
	close(gate)
	if err := p.Wait(); !IsDeadlineExceeded(err) {
		t.Fatalf("Wait = %v", err)
	}
	if ran.Load() {
		t.Fatal("expired request executed")
	}
	st := db.Stats()
	if st.ShedExpired != 1 {
		t.Fatalf("ShedExpired = %d", st.ShedExpired)
	}
	if st.AbortsDeadline < 1 {
		t.Fatalf("AbortsDeadline = %d", st.AbortsDeadline)
	}
}

// TestPastDeadlineRejectedAtAdmission: a deadline already in the past is shed
// before it ever occupies queue capacity.
func TestPastDeadlineRejectedAtAdmission(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	_, err := db.SubmitOpts(TxnOptions{Deadline: time.Now().Add(-time.Second)}, func(tx *Txn) error {
		t.Error("dead-on-arrival request executed")
		return nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitOpts = %v", err)
	}
	st := db.Stats()
	if st.DeadlineRejected != 1 {
		t.Fatalf("DeadlineRejected = %d", st.DeadlineRejected)
	}
	if st.AbortsQueueFull != 1 {
		t.Fatalf("AbortsQueueFull = %d", st.AbortsQueueFull)
	}
}

// TestAdmissionShedIsAlsoDeadlineExceeded: the admission shed of a lost
// deadline names both why (the deadline) and how (rejected up front), so the
// wire answers it with the deadline status.
func TestAdmissionShedIsAlsoDeadlineExceeded(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	err := db.ExecOpts(TxnOptions{Deadline: time.Now().Add(-time.Second)}, func(tx *Txn) error { return nil })
	if !IsDeadlineExceeded(err) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("ExecOpts past its deadline = %v, want ErrDeadlineExceeded and ErrQueueFull", err)
	}
	if st := db.Stats(); st.AbortsDeadline != 0 || st.AbortsQueueFull != 1 {
		t.Fatalf("AbortsDeadline = %d, AbortsQueueFull = %d; the shed counts once, as queue-full", st.AbortsDeadline, st.AbortsQueueFull)
	}
}

// TestTxnErrVisibleInsideTransaction: user code can poll tx.Err() to unwind
// cooperatively with its own cleanup instead of waiting for the next engine
// operation to fail.
func TestTxnErrVisibleInsideTransaction(t *testing.T) {
	db := lifecycleDB(t, 1)
	err := db.ExecOpts(TxnOptions{Timeout: time.Millisecond}, func(tx *Txn) error {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := tx.Get("inv", binary.BigEndian.AppendUint64(nil, 0)); err != nil {
				return err
			}
			if err := tx.Err(); err != nil {
				return err
			}
		}
		return errors.New("lifecycle error never became visible")
	})
	if !IsDeadlineExceeded(err) {
		t.Fatalf("ExecOpts = %v", err)
	}
}

// TestTypedErrorHelpers pins the classification helpers against wrapping.
func TestTypedErrorHelpers(t *testing.T) {
	wrapped := func(e error) error { return errors.Join(errors.New("outer"), e) }
	if !IsCanceled(wrapped(ErrCanceled)) || IsCanceled(wrapped(ErrDeadlineExceeded)) {
		t.Fatal("IsCanceled misclassifies")
	}
	if !IsDeadlineExceeded(wrapped(ErrDeadlineExceeded)) || IsDeadlineExceeded(nil) {
		t.Fatal("IsDeadlineExceeded misclassifies")
	}
	if !IsConflict(wrapped(ErrConflict)) {
		t.Fatal("IsConflict misses ErrConflict")
	}
}
