package preemptdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"preemptdb/internal/iofault"
)

// kvSchema is the deterministic schema callback file-backed tests reopen
// with: one table, one secondary index on the row's first byte.
func kvSchema(db *DB) error {
	db.CreateTable("kv")
	return db.CreateIndex("kv", "byFirst", func(key, row []byte) []byte {
		if len(row) == 0 {
			return nil
		}
		return row[:1]
	})
}

func openFile(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Config{Workers: 1, Schema: kvSchema, SyncEachCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func putKV(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if err := db.Run(func(tx *Txn) error {
		return tx.Put("kv", []byte(key), []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
}

func getKV(t *testing.T, db *DB, key string) (string, error) {
	t.Helper()
	var out string
	err := db.Run(func(tx *Txn) error {
		v, err := tx.Get("kv", []byte(key))
		out = string(v)
		return err
	})
	return out, err
}

func wantKV(t *testing.T, db *DB, key, val string) {
	t.Helper()
	got, err := getKV(t, db, key)
	if err != nil || got != val {
		t.Fatalf("kv[%s] = %q, %v; want %q", key, got, err, val)
	}
}

func TestOpenFileBackedRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db := openFile(t, dir)
	putKV(t, db, "a", "1")
	putKV(t, db, "b", "2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openFile(t, dir)
	defer db2.Close()
	wantKV(t, db2, "a", "1")
	wantKV(t, db2, "b", "2")
	// The secondary index was rebuilt by replay through the schema callback.
	found := false
	if err := db2.Run(func(tx *Txn) error {
		return tx.ScanIndex("kv", "byFirst", []byte("2"), []byte("3"), func(k, v []byte) bool {
			found = string(v) == "2"
			return false
		})
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("secondary index not rebuilt by recovery")
	}
	// Appending after reopen continues the same stream.
	putKV(t, db2, "c", "3")
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := openFile(t, dir)
	defer db3.Close()
	for key, val := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		wantKV(t, db3, key, val)
	}
}

func TestOpenRecoversAcrossCheckpointAndTruncation(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{Workers: 1, Schema: kvSchema, SyncEachCommit: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		putKV(t, db, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		putKV(t, db, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	// A second checkpoint prunes down to two and truncates covered segments.
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	putKV(t, db, "k30", "v30")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openFile(t, dir)
	defer db2.Close()
	for i := 0; i <= 30; i++ {
		wantKV(t, db2, fmt.Sprintf("k%02d", i)[:3], fmt.Sprintf("v%d", i))
	}
}

// findFiles returns data-directory entries matching the suffix.
func findFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// seedTwoCheckpoints builds a directory holding two checkpoints (older one
// covering k0..k9, newer also covering k10..k19) plus a log tail with k20.
func seedTwoCheckpoints(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db := openFile(t, dir)
	for i := 0; i < 10; i++ {
		putKV(t, db, fmt.Sprintf("k%02d", i), "old")
	}
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		putKV(t, db, fmt.Sprintf("k%02d", i), "new")
	}
	if err := db.CheckpointDisk(); err != nil {
		t.Fatal(err)
	}
	putKV(t, db, "k20", "tail")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cks := findFiles(t, dir, ".ckpt")
	if len(cks) != 2 {
		t.Fatalf("seeded %d checkpoints, want 2", len(cks))
	}
	return dir
}

func verifySeeded(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Config{Workers: 1, Schema: kvSchema, SyncEachCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		want := "old"
		if i >= 10 {
			want = "new"
		}
		wantKV(t, db, fmt.Sprintf("k%02d", i), want)
	}
	wantKV(t, db, "k20", "tail")
}

func TestOpenFallsBackOnTruncatedCheckpoint(t *testing.T) {
	dir := seedTwoCheckpoints(t)
	cks := findFiles(t, dir, ".ckpt")
	newest := cks[len(cks)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	verifySeeded(t, dir)
}

func TestOpenFallsBackOnBitFlippedCheckpoint(t *testing.T) {
	dir := seedTwoCheckpoints(t)
	cks := findFiles(t, dir, ".ckpt")
	newest := cks[len(cks)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x08 // corrupt a payload byte: the CRC must catch it
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	verifySeeded(t, dir)
}

func TestOpenIgnoresCrashedCheckpointTemp(t *testing.T) {
	// A crash between writing the temp file and renaming it leaves a .tmp
	// the next Open must clear and never treat as a checkpoint.
	dir := seedTwoCheckpoints(t)
	cks := findFiles(t, dir, ".ckpt")
	newest := cks[len(cks)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "ckpt-ffffffffffffffff.ckpt.tmp")
	if err := os.WriteFile(tmp, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	verifySeeded(t, dir)
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("abandoned checkpoint temp file survived Open")
	}
}

func TestDBReadOnlyAfterWALFailure(t *testing.T) {
	sink := iofault.NewSink()
	db, err := Open("", Config{Workers: 1, Schema: kvSchema, LogSink: sink, SyncEachCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	putKV(t, db, "a", "1")
	if db.ReadOnly() {
		t.Fatal("healthy DB reports read-only")
	}

	sink.FailSync(2, nil) // next batch's sync fails and latches the log
	err = db.ExecOpts(TxnOptions{Priority: High}, func(tx *Txn) error {
		return tx.Put("kv", []byte("b"), []byte("2"))
	})
	if !IsWALFailed(err) {
		t.Fatalf("commit over failed sync: %v, want IsWALFailed", err)
	}
	if !db.ReadOnly() {
		t.Fatal("DB not read-only after WAL failure")
	}

	// Reads keep working; later writes are refused with the typed error.
	wantKV(t, db, "a", "1")
	err = db.ExecOpts(TxnOptions{Priority: Low}, func(tx *Txn) error {
		return tx.Put("kv", []byte("c"), []byte("3"))
	})
	if !IsWALFailed(err) {
		t.Fatalf("write on read-only DB: %v, want IsWALFailed", err)
	}

	st := db.Stats()
	if !st.WALFailed {
		t.Fatal("Stats.WALFailed not set")
	}
	if st.AbortsWALFailed < 2 {
		t.Fatalf("Stats.AbortsWALFailed = %d, want >= 2", st.AbortsWALFailed)
	}
	// CheckpointDisk is a disk operation: refused on an in-memory DB.
	if err := db.CheckpointDisk(); err == nil {
		t.Fatal("CheckpointDisk on an in-memory DB succeeded")
	}
}
