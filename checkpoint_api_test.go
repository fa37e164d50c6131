package preemptdb

import (
	"encoding/binary"
	"testing"
	"time"
)

func TestCheckpointRestoreThroughAPI(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, SyncEachCommit: true, SegmentBytes: 256, Schema: func(db *DB) error {
		db.CreateTable("t")
		return db.CreateIndex("t", "mirror", func(k, row []byte) []byte { return append([]byte(nil), k...) })
	}}
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := binary.BigEndian.AppendUint32(nil, uint32(i))
		if err := db.Run(func(tx *Txn) error { return tx.Insert("t", key, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint covers every row and truncates the log segments below
	// it, so what the reopen finds came back through the checkpoint.
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	n := 0
	db2.Run(func(tx *Txn) error {
		return tx.Scan("t", nil, nil, func(k, v []byte) bool { n++; return true })
	})
	if n != 100 {
		t.Fatalf("restored %d rows", n)
	}
	idx := 0
	db2.Run(func(tx *Txn) error {
		return tx.ScanIndex("t", "mirror", nil, nil, func(k, v []byte) bool { idx++; return true })
	})
	if idx != 100 {
		t.Fatalf("restored %d index rows", idx)
	}
}

func TestScanDescThroughAPI(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	db.CreateIndex("t", "byval", func(k, row []byte) []byte { return append([]byte(nil), row...) })
	db.Run(func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert("t", binary.BigEndian.AppendUint32(nil, uint32(i)), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	var got []uint32
	db.Run(func(tx *Txn) error {
		return tx.ScanDesc("t", nil, nil, func(k, v []byte) bool {
			got = append(got, binary.BigEndian.Uint32(k))
			return len(got) < 5
		})
	})
	want := []uint32{49, 48, 47, 46, 45}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Descending index scan: newest (largest value byte) first.
	var first byte
	db.Run(func(tx *Txn) error {
		return tx.ScanIndexDesc("t", "byval", nil, nil, func(k, v []byte) bool {
			first = v[0]
			return false
		})
	})
	if first != 49 {
		t.Fatalf("index desc first = %d", first)
	}
}

func TestExecTimedReportsLatency(t *testing.T) {
	db := openTest(t, Config{Workers: 1, Policy: PolicyPreempt})
	db.CreateTable("t")
	timing, err := db.ExecTimed(High, func(tx *Txn) error {
		return tx.Insert("t", []byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if timing.Total <= 0 || timing.Scheduling < 0 || timing.Scheduling > timing.Total {
		t.Fatalf("timing = %+v", timing)
	}
	if timing.Total > 10*time.Second {
		t.Fatalf("implausible total %v", timing.Total)
	}
}

func TestSubmitTimedCallback(t *testing.T) {
	db := openTest(t, Config{Workers: 1})
	db.CreateTable("t")
	ch := make(chan Timing, 1)
	err := db.SubmitTimed(Low, func(tx *Txn) error { return nil },
		func(tm Timing, err error) {
			if err != nil {
				t.Error(err)
			}
			ch <- tm
		})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case tm := <-ch:
		if tm.Total <= 0 {
			t.Fatalf("timing %+v", tm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("callback never fired")
	}
}
