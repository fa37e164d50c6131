package preemptdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func openTest(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenCloseTwice(t *testing.T) {
	db, err := Open("", Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v", err)
	}
	if err := db.Submit(High, func(tx *Txn) error { return nil }, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestRunCRUD(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("kv")
	err := db.Run(func(tx *Txn) error {
		if err := tx.Insert("kv", []byte("a"), []byte("1")); err != nil {
			return err
		}
		return tx.Insert("kv", []byte("b"), []byte("2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Run(func(tx *Txn) error {
		v, err := tx.Get("kv", []byte("a"))
		if err != nil || string(v) != "1" {
			return fmt.Errorf("get a = %q, %v", v, err)
		}
		if err := tx.Update("kv", []byte("a"), []byte("1b")); err != nil {
			return err
		}
		if err := tx.Delete("kv", []byte("b")); err != nil {
			return err
		}
		return tx.Put("kv", []byte("c"), []byte("3"))
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	db.Run(func(tx *Txn) error {
		return tx.Scan("kv", nil, nil, func(k, v []byte) bool {
			seen = append(seen, string(k)+"="+string(v))
			return true
		})
	})
	want := []string{"a=1b", "c=3"}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("scan = %v", seen)
	}
}

func TestErrorsRollBack(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	boom := errors.New("boom")
	err := db.Run(func(tx *Txn) error {
		tx.Insert("t", []byte("x"), []byte("1"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	db.Run(func(tx *Txn) error {
		if _, err := tx.Get("t", []byte("x")); !IsNotFound(err) {
			t.Errorf("rolled-back insert visible: %v", err)
		}
		return nil
	})
}

func TestUnknownTable(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	err := db.Run(func(tx *Txn) error {
		_, err := tx.Get("nope", []byte("k"))
		return err
	})
	if err == nil {
		t.Fatal("unknown table must error")
	}
	if err := db.CreateIndex("nope", "i", func(k, v []byte) []byte { return nil }); err == nil {
		t.Fatal("index on unknown table must error")
	}
}

func TestDuplicateKeyError(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	db.Run(func(tx *Txn) error { return tx.Insert("t", []byte("k"), []byte("v")) })
	err := db.Run(func(tx *Txn) error { return tx.Insert("t", []byte("k"), []byte("v2")) })
	if !IsDuplicateKey(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestSecondaryIndexThroughAPI(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("users")
	if err := db.CreateIndex("users", "bycity", func(k, row []byte) []byte {
		return append([]byte(nil), row...) // index the whole row (the city)
	}); err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Txn) error {
		tx.Insert("users", []byte("u1"), []byte("berlin"))
		tx.Insert("users", []byte("u2"), []byte("tokyo"))
		tx.Insert("users", []byte("u3"), []byte("berlin"))
		return nil
	})
	var hits int
	db.Run(func(tx *Txn) error {
		return tx.ScanIndex("users", "bycity", []byte("berlin"), []byte("berlio"),
			func(k, v []byte) bool { hits++; return true })
	})
	if hits != 2 {
		t.Fatalf("index hits = %d", hits)
	}
}

func TestExecBothPriorities(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	db.CreateTable("t")
	if err := db.Exec(Low, func(tx *Txn) error {
		return tx.Insert("t", []byte("lo"), []byte("1"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(High, func(tx *Txn) error {
		return tx.Insert("t", []byte("hi"), []byte("2"))
	}); err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Txn) error {
		if _, err := tx.Get("t", []byte("lo")); err != nil {
			t.Error(err)
		}
		if _, err := tx.Get("t", []byte("hi")); err != nil {
			t.Error(err)
		}
		return nil
	})
}

// TestHighPreemptsLow: on one worker, a low-priority scan runs until a
// high-priority request has committed, so the high request can only commit
// by preempting it. A lost interrupt cannot hang the test: the scan gives up
// at its iteration cap, the high request then runs after it, and the test
// fails on the order.
func TestHighPreemptsLow(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	db.CreateTable("data")
	if err := db.Run(func(tx *Txn) error {
		var k [8]byte
		for i := 0; i < 20000; i++ {
			binary.BigEndian.PutUint64(k[:], uint64(i))
			if err := tx.Insert("data", k[:], bytes.Repeat([]byte("x"), 64)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()

	const scanCap = 1000 // the watchdog: far more scans than a preemption takes
	var hiDone, lowInFlight atomic.Bool
	var scans int
	lowStarted, lowDone := make(chan struct{}), make(chan error, 1)
	if err := db.Submit(Low, func(tx *Txn) error {
		lowInFlight.Store(true)
		close(lowStarted)
		for scans = 0; scans < scanCap && !hiDone.Load(); scans++ {
			if err := tx.Scan("data", nil, nil, func(k, v []byte) bool { return true }); err != nil {
				return err
			}
		}
		lowInFlight.Store(false)
		return nil
	}, func(err error) { lowDone <- err }); err != nil {
		t.Fatal(err)
	}
	<-lowStarted
	if err := db.Exec(High, func(tx *Txn) error {
		_, err := tx.Get("data", binary.BigEndian.AppendUint64(nil, 7))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	committedDuringLow := lowInFlight.Load()
	hiDone.Store(true)
	if err := <-lowDone; err != nil {
		t.Fatal(err)
	}
	if !committedDuringLow {
		t.Fatalf("high-priority request committed after the low scan (%d of %d scans), not by preempting it", scans, scanCap)
	}
	after := db.Stats()
	if after.InterruptsSent == before.InterruptsSent || after.PassiveSwitches == before.PassiveSwitches {
		t.Fatalf("no preemption counted: interrupts %d -> %d, passive switches %d -> %d",
			before.InterruptsSent, after.InterruptsSent, before.PassiveSwitches, after.PassiveSwitches)
	}
}

// TestStatsSampledWhilePreempting: DB.Stats sums every context's switch
// counters from the caller's goroutine while the owning contexts bump them on
// each preemption. Under -race this fails unless the counters are atomics
// (they are single-writer: the switching context); without -race it still
// checks that a sampled counter never runs backwards.
func TestStatsSampledWhilePreempting(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	db.CreateTable("data")
	if err := db.Run(func(tx *Txn) error {
		var k [8]byte
		for i := 0; i < 20000; i++ {
			binary.BigEndian.PutUint64(k[:], uint64(i))
			if err := tx.Insert("data", k[:], []byte("x")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	sampled := make(chan error, 1)
	go func() {
		var last Stats
		for !stop.Load() {
			st := db.Stats()
			if st.PassiveSwitches < last.PassiveSwitches || st.ActiveSwitches < last.ActiveSwitches {
				sampled <- fmt.Errorf("switch counters ran backwards: %d/%d after %d/%d",
					st.PassiveSwitches, st.ActiveSwitches, last.PassiveSwitches, last.ActiveSwitches)
				return
			}
			last = st
			runtime.Gosched()
		}
		sampled <- nil
	}()

	// One long Low scan keeps the worker's low slot busy; every High request
	// has to preempt it (a passive switch in, an active switch back).
	lowDone := make(chan struct{})
	db.Submit(Low, func(tx *Txn) error {
		for !stop.Load() {
			tx.Scan("data", nil, nil, func(k, v []byte) bool { return true })
		}
		return nil
	}, func(error) { close(lowDone) })
	for i := 0; i < 200; i++ {
		if err := db.Exec(High, func(tx *Txn) error {
			_, err := tx.Get("data", binary.BigEndian.AppendUint64(nil, uint64(i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-lowDone
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PassiveSwitches == 0 || st.ActiveSwitches == 0 {
		t.Fatalf("no preemption happened: passive %d, active %d", st.PassiveSwitches, st.ActiveSwitches)
	}
}

func TestSubmitAsyncDone(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	var calls atomic.Int32
	done := make(chan error, 1)
	err := db.Submit(High, func(tx *Txn) error {
		calls.Add(1)
		return tx.Insert("t", []byte("k"), []byte("v"))
	}, func(err error) { done <- err })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("done callback never fired")
	}
	if calls.Load() != 1 {
		t.Fatalf("work ran %d times", calls.Load())
	}
}

func TestQueueFull(t *testing.T) {
	db := openTest(t, Config{Workers: 1, LoQueueSize: 1})
	db.CreateTable("t")
	block := make(chan struct{})
	// Occupy the worker.
	db.Submit(Low, func(tx *Txn) error { <-block; return nil }, nil)
	time.Sleep(2 * time.Millisecond)
	// Fill the single queue slot.
	filled := false
	for i := 0; i < 3; i++ {
		if err := db.Submit(Low, func(tx *Txn) error { return nil }, nil); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("err = %v", err)
			}
			filled = true
			break
		}
	}
	close(block)
	if !filled {
		t.Fatal("queue never reported full")
	}
}

func TestConflictRetryTransparent(t *testing.T) {
	db := openTest(t, Config{Workers: 2})
	db.CreateTable("ctr")
	db.Run(func(tx *Txn) error { return tx.Insert("ctr", []byte("n"), make([]byte, 8)) })

	const workers, perWorker = 4, 200
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				err := db.Run(func(tx *Txn) error {
					v, err := tx.Get("ctr", []byte("n"))
					if err != nil {
						return err
					}
					n := binary.LittleEndian.Uint64(v)
					return tx.Update("ctr", []byte("n"), binary.LittleEndian.AppendUint64(nil, n+1))
				})
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	db.Run(func(tx *Txn) error {
		v, _ := tx.Get("ctr", []byte("n"))
		if n := binary.LittleEndian.Uint64(v); n != workers*perWorker {
			t.Errorf("counter = %d, want %d", n, workers*perWorker)
		}
		return nil
	})
}

func TestSerializableConfig(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Isolation: Serializable})
	db.CreateTable("t")
	if err := db.Run(func(tx *Txn) error {
		return tx.Insert("t", []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVacuum(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	db.Run(func(tx *Txn) error { return tx.Insert("t", []byte("k"), []byte("v0")) })
	for i := 0; i < 5; i++ {
		db.Run(func(tx *Txn) error {
			return tx.Update("t", []byte("k"), []byte{byte('0' + i)})
		})
	}
	if n := db.Vacuum(); n != 5 {
		t.Fatalf("vacuum reclaimed %d, want 5", n)
	}
}

func TestWALRecoveryThroughAPI(t *testing.T) {
	var log bytes.Buffer
	db := openTest(t, Config{Workers: 1, LogSink: &log})
	db.CreateTable("t")
	db.Run(func(tx *Txn) error { return tx.Insert("t", []byte("k"), []byte("v")) })
	db.Close()
	if log.Len() == 0 {
		t.Fatal("no log bytes written")
	}
	if db.Stats().LogBytes == 0 {
		t.Fatal("log bytes not counted")
	}
}

func TestYieldAndNonPreemptibleSafeEverywhere(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyCooperativeHandcrafted})
	db.CreateTable("t")
	err := db.Exec(Low, func(tx *Txn) error {
		tx.NonPreemptible(func() {
			// Critical section: preemption masked.
		})
		tx.Yield()
		return tx.Insert("t", []byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Also on a detached context via Run.
	if err := db.Run(func(tx *Txn) error { tx.Yield(); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyWait:                   "Wait",
		PolicyCooperative:            "Cooperative",
		PolicyCooperativeHandcrafted: "Cooperative (Handcrafted)",
		PolicyPreempt:                "PreemptDB",
	} {
		if p.String() != want {
			t.Errorf("%d: %q", p, p.String())
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	db.Run(func(tx *Txn) error { return tx.Insert("t", []byte("a"), []byte("b")) })
	st := db.Stats()
	if st.Commits == 0 {
		t.Fatal("commits not counted")
	}
}
