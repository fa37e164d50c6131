package server

import (
	"errors"
	"strings"
	"testing"

	"preemptdb"
	"preemptdb/internal/iofault"
)

// TestServerReadOnlyDegradation drives the operator-facing contract after a
// log failure: the in-flight write gets the typed read-only status, later
// writes are refused the same way, reads keep succeeding, and the stats line
// flags the condition.
func TestServerReadOnlyDegradation(t *testing.T) {
	sink := iofault.NewSink()
	c, _ := startServer(t, preemptdb.Config{LogSink: sink, SyncEachCommit: true})
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("kv", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	sink.FailSync(2, nil) // next batch's sync fails and latches the log
	if err := c.Put("kv", []byte("b"), []byte("2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write over failed sync: %v, want ErrReadOnly", err)
	}
	if err := c.Put("kv", []byte("c"), []byte("3")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on read-only server: %v, want ErrReadOnly", err)
	}

	// Reads still work. Key "b" is in the commit-uncertain window (its
	// version published at stage time even though its commit failed), so
	// only assert on the durably-acked key.
	if v, err := c.Get("kv", []byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("read after degradation: %q %v", v, err)
	}
	msg, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "wal_failed=true") {
		t.Fatalf("stats line does not flag the failure: %q", msg)
	}
}
