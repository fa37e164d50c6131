package mvcc

import (
	"fmt"
	"testing"
)

// Ablation: cost of MVCC primitives, including the indirect-commit-stamp
// design (a version's first read resolves through its writer's state word
// and help-stamps; later reads take the stamped fast path).

func BenchmarkReadStampedHead(b *testing.B) {
	o := NewOracle()
	rec := NewRecord()
	tx := o.Begin(nil, SnapshotIsolation, nil)
	tx.Update(rec, []byte("v"))
	tx.Commit(nil)
	r := o.Begin(nil, SnapshotIsolation, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Read(rec); !ok {
			b.Fatal("lost row")
		}
	}
}

func BenchmarkReadUnstampedIndirection(b *testing.B) {
	// Unstamped committed versions: measures the writer-state resolution
	// path including the help-stamp CAS. A bounded pool is re-unstamped
	// between passes so memory stays constant at any b.N.
	const pool = 1 << 15
	o := NewOracle()
	recs := make([]*Record, pool)
	txns := make([]*Txn, pool)
	for i := range recs {
		recs[i] = NewRecord()
		tx := o.Begin(nil, SnapshotIsolation, nil)
		tx.Update(recs[i], []byte("v"))
		// Commit without eager stamping: publish the state word only.
		cts := o.clock.Add(1)
		tx.state.Store(statusCommitted | cts<<statusBits)
		txns[i] = tx
	}
	r := o.Begin(nil, SnapshotIsolation, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i & (pool - 1)
		if idx == 0 && i > 0 {
			b.StopTimer()
			for j := range recs {
				v := recs[j].head.Load()
				v.cts.Store(0)
				v.writer.Store(txns[j])
			}
			b.StartTimer()
		}
		if _, ok := r.Read(recs[idx]); !ok {
			b.Fatal("lost row")
		}
	}
}

func BenchmarkReadChainDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			o := NewOracle()
			rec := NewRecord()
			// Old snapshot pins the bottom version; build `depth` newer ones.
			base := o.Begin(nil, SnapshotIsolation, nil)
			base.Update(rec, []byte("v0"))
			base.Commit(nil)
			reader := o.Begin(nil, SnapshotIsolation, nil)
			for i := 0; i < depth-1; i++ {
				tx := o.Begin(nil, SnapshotIsolation, nil)
				tx.Update(rec, []byte("vn"))
				tx.Commit(nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := reader.Read(rec); !ok {
					b.Fatal("pinned version lost")
				}
			}
		})
	}
}

func BenchmarkUpdateCommit(b *testing.B) {
	o := NewOracle()
	rec := NewRecord()
	setup := o.Begin(nil, SnapshotIsolation, nil)
	setup.Update(rec, []byte("v"))
	setup.Commit(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := o.Begin(nil, SnapshotIsolation, nil)
		if err := tx.Update(rec, []byte("v")); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	Trim(rec, o.Clock())
}

func BenchmarkSerializableCommit(b *testing.B) {
	o := NewOracle()
	rec := NewRecord()
	setup := o.Begin(nil, Serializable, nil)
	setup.Update(rec, []byte("v"))
	setup.Commit(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := o.Begin(nil, Serializable, nil)
		tx.Read(rec)
		if err := tx.Update(rec, []byte("v")); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	Trim(rec, o.Clock())
}

func BenchmarkTrimChain16(b *testing.B) {
	// Measures building a 16-version chain (InstallCommitted) plus trimming
	// it back to one version — the GC unit of work — with bounded memory.
	rec := NewRecord()
	val := []byte("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := uint64(i)*16 + 1
		for v := uint64(0); v < 16; v++ {
			InstallCommitted(rec, val, base+v)
		}
		if n := Trim(rec, base+16); n == 0 && i > 0 {
			b.Fatal("nothing trimmed")
		}
	}
}

// BenchmarkMinActiveBegin measures the vacuum-side horizon scan over a slot
// table sized like a busy process (many attached contexts). The scan
// walks the atomically-published snapshot without taking the registration
// lock, so its cost is pure iteration.
func BenchmarkMinActiveBegin(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			o := NewOracle()
			for i := 0; i < n; i++ {
				s := o.RegisterSlot()
				s.begin.Store(uint64(i + 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o.MinActiveBegin() != 0 {
					b.Fatal("horizon moved")
				}
			}
		})
	}
}

// BenchmarkRegisterUnderGC measures slot register/unregister while a
// concurrent goroutine runs the GC horizon scan in a tight loop — the
// contention pattern the snapshot publication removes (a mu-guarded scan
// would serialize every Register against every vacuum cycle).
func BenchmarkRegisterUnderGC(b *testing.B) {
	o := NewOracle()
	for i := 0; i < 256; i++ {
		s := o.RegisterSlot()
		s.begin.Store(uint64(i + 1))
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				o.MinActiveBegin()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := o.RegisterSlot()
		o.UnregisterSlot(s)
	}
	b.StopTimer()
	close(stop)
}
