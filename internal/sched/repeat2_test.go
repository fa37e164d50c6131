package sched

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
)

// TestRepeatedPreemptionEngineScan: a low-priority transaction scans through
// the engine until ten high-priority requests, submitted one after another,
// have all run. Each of them starts while the scan is in flight, so each
// must run on the preemptive context: the engine's scan polls, and every
// interrupt after the first is recognized too. A request submitted from the
// previous one's OnDone may still find the preemptive context draining, so
// the scan pays at least one passive switch, not necessarily ten.
func TestRepeatedPreemptionEngineScan(t *testing.T) {
	e := engine.New(engine.Config{})
	tab := e.CreateTable("data")
	load := e.Begin(nil)
	v := make([]byte, 32)
	var k [8]byte
	for i := 0; i < 60000; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		load.Insert(tab, k[:], v)
	}
	load.Commit()

	s := New(Config{Policy: PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()

	const rounds = 10
	var hiRan atomic.Int64
	var scanning, giveUp atomic.Bool
	defer giveUp.Store(true) // a failed round must not leave the scan looping under Stop
	loStarted, loDone := make(chan struct{}), make(chan struct{})
	s.SubmitLow(0, &Request{Work: func(ctx *pcontext.Context) error {
		tx := e.Begin(ctx)
		defer tx.Abort()
		scanning.Store(true)
		close(loStarted)
		for hiRan.Load() < rounds && !giveUp.Load() {
			tx.Scan(tab, nil, nil, func(k, v []byte) bool { return true })
		}
		scanning.Store(false)
		err := tx.Commit()
		close(loDone)
		return err
	}})
	waitChan(t, loStarted, "low scan never started")
	for i := 0; i < rounds; i++ {
		hiDone := make(chan struct{})
		var ranOn int
		var duringScan bool
		req := &Request{Work: func(ctx *pcontext.Context) error {
			ranOn, duringScan = ctx.ID(), scanning.Load()
			tx := e.Begin(ctx)
			defer tx.Abort()
			var kk [8]byte
			binary.BigEndian.PutUint64(kk[:], 5)
			tx.Get(tab, kk[:])
			hiRan.Add(1)
			return tx.Commit()
		}, OnDone: func(*Request) { close(hiDone) }}
		if s.SubmitHighBatch([]*Request{req}) != 1 {
			t.Fatalf("round %d: not accepted", i)
		}
		waitChan(t, hiDone, "high-priority request stuck behind the engine scan")
		if !duringScan || ranOn != 1 {
			t.Fatalf("round %d: ran on context %d, scan in flight = %v; want the preemptive context during the scan", i, ranOn, duringScan)
		}
	}
	waitChan(t, loDone, "low scan never finished")
	if s.Workers()[0].Core().Context(0).TCB().PassiveSwitches() == 0 {
		t.Fatal("scan was never preempted")
	}
}
