//go:build !race

package dtx

import (
	"testing"

	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
)

// The race detector makes sync.Pool drop items at random, so a non-zero
// allocation count is only exact without it.

// TestCommitCrossShardAllocs pins what a two-participant cross-shard commit
// allocates end to end on one detached context — begin on both engines (the
// second as a guest), one update each, prepare ×2, decision, resolve ×2. The
// one-phase commit path is guarded at 0 allocs/op by the engine's tests; this
// is the only guard on the 2PC path, which pays for the guest transaction,
// the decision transaction and the participant slice.
func TestCommitCrossShardAllocs(t *testing.T) {
	var engs [2]*engine.Engine
	var tabs [2]*engine.Table
	for i := range engs {
		engs[i] = engine.New(engine.Config{})
		defer engs[i].Close()
		tabs[i] = engs[i].CreateTable("kv")
		EnsureTable(engs[i])
	}
	ctx := pcontext.Detached()
	key, val := []byte("k"), []byte("v")
	gid := GIDBit
	commit := func() {
		gid++
		parts := make([]Participant, 0, 2)
		for i := range engs {
			tx := engs[i].Begin(ctx)
			if err := tx.Put(tabs[i], key, val); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, Participant{Shard: i, Txn: tx, Eng: engs[i]})
		}
		if err := CommitCrossShard(gid, parts, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		commit() // warm the pools, the version chains and the WAL batch buffers
	}
	if avg := testing.AllocsPerRun(256, commit); avg > 24 {
		t.Fatalf("cross-shard commit allocates %.1f allocs/op, want <= 24", avg)
	}
}
