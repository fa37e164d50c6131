//go:build !race

package server

import (
	"testing"

	"preemptdb"
)

// The race detector makes sync.Pool drop items at random, so a non-zero
// allocation count is only exact without it.

// TestClientAllocs pins what one Client.Txn(Get) of a key the hot-key cache
// holds allocates on both ends of a loopback connection (AllocsPerRun counts
// the whole process, the server's connection goroutine included). Both
// connection buffers are reused and the server answers a cache hit in place,
// so what is left is the decoded results: 3 allocs/op.
func TestClientAllocs(t *testing.T) {
	cl, _ := startServer(t, preemptdb.Config{CacheBytes: 1 << 20})
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	key := []byte("key")
	if err := cl.Put("kv", key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	ops := []ScriptOp{GetOp("kv", key)}
	get := func() {
		if _, err := cl.Txn(preemptdb.Low, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		get() // warm the pools and both connection buffers
	}
	if avg := testing.AllocsPerRun(256, get); avg > 3 {
		t.Fatalf("Client.Txn(Get) allocates %.1f allocs/op, want <= 3", avg)
	}
}
