package engine

import (
	"fmt"
	"testing"

	"preemptdb/internal/metrics"
	"preemptdb/internal/pcontext"
)

// TestCommitRecordsWALWait: the sampled WAL-wait probe must land
// observations in the engine's registry once enough commits have passed the
// 1-in-2^walSampleShift gate.
func TestCommitRecordsWALWait(t *testing.T) {
	e := New(Config{})
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	const commits = 4 << walSampleShift
	for i := 0; i < commits; i++ {
		tx := e.Begin(ctx)
		if err := tx.Put(tbl, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	n := e.Metrics().Phase(metrics.ClassLo, metrics.PhaseWALWait).Count()
	if want := uint64(commits >> walSampleShift); n != want {
		t.Fatalf("wal_wait samples = %d, want %d (1 in %d of %d commits)",
			n, want, 1<<walSampleShift, commits)
	}
}

// TestEveryStepRecordsWALWait: the probe lives in the one pipeline, so a 2PC
// participant's prepare AND resolve feed PhaseWALWait (class from
// CLS.HighPrio) exactly like a one-phase commit, and with spans on each
// staged step emits its EvWALWait before the leg's own span.
func TestEveryStepRecordsWALWait(t *testing.T) {
	for _, hi := range []bool{false, true} {
		reg := metrics.NewRegistry()
		e := New(Config{Metrics: reg, TraceSampling: 1}) // probe on every step
		core := pcontext.NewCore(0, 1)
		core.SetTracer(pcontext.NewTracer(64))
		ctx := core.Context(0)
		ctx.CLS().HighPrio = hi
		class, other := metrics.ClassLo, metrics.ClassHi
		if hi {
			class, other = other, class
		}
		tbl := e.CreateTable("t")

		tx := e.Begin(ctx)
		if err := tx.Put(tbl, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.PrepareCommit(7); err != nil {
			t.Fatal(err)
		}
		if n := reg.Phase(class, metrics.PhaseWALWait).Count(); n != 1 {
			t.Fatalf("hi=%v: wal_wait samples after prepare = %d, want 1", hi, n)
		}
		if err := tx.ResolveCommit(); err != nil {
			t.Fatal(err)
		}
		if n := reg.Phase(class, metrics.PhaseWALWait).Count(); n != 2 {
			t.Fatalf("hi=%v: wal_wait samples after resolve = %d, want 2", hi, n)
		}
		tx = e.Begin(ctx)
		if err := tx.Put(tbl, []byte("k"), []byte("w")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := reg.Phase(class, metrics.PhaseWALWait).Count(); n != 3 {
			t.Fatalf("hi=%v: wal_wait samples after commit = %d, want 3", hi, n)
		}
		if n := reg.Phase(other, metrics.PhaseWALWait).Count(); n != 0 {
			t.Fatalf("hi=%v: %d wal_wait samples in the other class", hi, n)
		}

		var kinds []pcontext.EventKind
		for _, ev := range core.Tracer().Snapshot() {
			kinds = append(kinds, ev.Kind)
			if ev.Kind == pcontext.EvWALWait && pcontext.AuxDetail(ev.Aux) != 1 {
				t.Fatalf("hi=%v: lone committer must be its batch's leader: %+v", hi, ev)
			}
		}
		want := []pcontext.EventKind{
			pcontext.EvWALWait, pcontext.EvPrepare,
			pcontext.EvWALWait, pcontext.EvResolve,
			pcontext.EvWALWait,
		}
		if fmt.Sprint(kinds) != fmt.Sprint(want) {
			t.Fatalf("hi=%v: span sequence %v, want %v", hi, kinds, want)
		}

		// A participant that wrote nothing stages nothing: no wait to record.
		ro := e.Begin(ctx)
		if err := ro.PrepareCommit(8); err != nil {
			t.Fatal(err)
		}
		if err := ro.ResolveCommit(); err != nil {
			t.Fatal(err)
		}
		if n := reg.Phase(class, metrics.PhaseWALWait).Count(); n != 3 {
			t.Fatalf("hi=%v: read-only participant recorded a wal_wait sample (%d total)", hi, n)
		}
	}
}

// TestCommitClassFromCLS: a context flagged high-priority (as the scheduler
// does around each request) must have its WAL wait attributed to the hi class.
func TestCommitClassFromCLS(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{Metrics: reg})
	if e.Metrics() != reg {
		t.Fatal("engine must adopt the provided registry")
	}
	ctx := pcontext.Detached()
	ctx.CLS().HighPrio = true
	tbl := e.CreateTable("t")
	for i := 0; i < 1<<walSampleShift; i++ {
		tx := e.Begin(ctx)
		if err := tx.Put(tbl, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Phase(metrics.ClassHi, metrics.PhaseWALWait).Count(); n != 1 {
		t.Fatalf("hi wal_wait samples = %d, want 1", n)
	}
	if n := reg.Phase(metrics.ClassLo, metrics.PhaseWALWait).Count(); n != 0 {
		t.Fatalf("lo wal_wait samples = %d, want 0", n)
	}
}

// TestReadOnlyCommitNotSampled: commits that staged nothing have no WAL wait
// and must not pollute the distribution with zeros.
func TestReadOnlyCommitNotSampled(t *testing.T) {
	e := New(Config{})
	ctx := pcontext.Detached()
	for i := 0; i < 4<<walSampleShift; i++ {
		tx := e.Begin(ctx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Metrics().Phase(metrics.ClassLo, metrics.PhaseWALWait).Count(); n != 0 {
		t.Fatalf("read-only commits recorded %d wal_wait samples", n)
	}
}

// TestCommitAllocsWithMetrics guards the instrumented steady-state commit
// path: with metrics always on, the pooled Update+Commit cycle must stay
// allocation-free (the acceptance bar for BenchmarkCommitSI).
func TestCommitAllocsWithMetrics(t *testing.T) {
	e := New(Config{})
	ctx := pcontext.Detached()
	tbl := e.CreateTable("t")
	key, val := []byte("key"), []byte("value")
	{
		tx := e.Begin(ctx)
		if err := tx.Put(tbl, key, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit := func() {
		tx := e.Begin(ctx)
		if err := tx.Update(tbl, key, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		commit() // warm the pool, the version chain, and the WAL batch buffer
	}
	if avg := testing.AllocsPerRun(256, commit); avg >= 1 {
		t.Fatalf("instrumented commit allocates %.2f allocs/op, want 0", avg)
	}
}
