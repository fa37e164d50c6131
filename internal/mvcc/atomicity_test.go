package mvcc

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// TestCommitPublicationAtomicity is the regression test for the torn-commit
// window behind a "snapshot total off-by-one" flake in concurrent scans:
// Commit drew its timestamp from the clock *before* the publication
// store, so a reader beginning in between (begin >= cts) could read one key
// pre-publication (old value) and another post-publication (new value) —
// half a committed transaction. With the statusCommitting window, readers
// that encounter an in-publication writer wait it out, so a multi-key commit
// is always observed wholly or not at all.
func TestCommitPublicationAtomicity(t *testing.T) {
	o := NewOracle()
	a, b := NewRecord(), NewRecord()

	// Seed: a=1000, b=1000; invariant a+b == 2000 under transfers.
	seed := begin(o, SnapshotIsolation)
	enc := func(v uint64) []byte {
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, v)
		return buf
	}
	dec := func(d []byte) uint64 { return binary.BigEndian.Uint64(d) }
	if err := seed.Update(a, enc(1000)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Update(b, enc(1000)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, seed)

	const rounds = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: transfer 1 from a to b and back, committing each round. The
	// logFn widens the draw->publish window a little to make the race easier
	// to hit on fast hosts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			tx := begin(o, SnapshotIsolation)
			av, _ := tx.Read(a)
			bv, _ := tx.Read(b)
			if err := tx.Update(a, enc(dec(av)-1)); err != nil {
				tx.Abort()
				continue
			}
			if err := tx.Update(b, enc(dec(bv)+1)); err != nil {
				tx.Abort()
				continue
			}
			if _, err := tx.Commit(func(uint64) error { runtime.Gosched(); return nil }); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()

	// Readers: fresh snapshot per iteration, both keys must sum to 2000.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := begin(o, SnapshotIsolation)
				av, ok1 := tx.Read(a)
				bv, ok2 := tx.Read(b)
				tx.Abort()
				if !ok1 || !ok2 {
					t.Error("seeded keys unreadable")
					return
				}
				if sum := dec(av) + dec(bv); sum != 2000 {
					t.Errorf("torn commit observed: a+b = %d, want 2000", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}
