package preemptdb

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb/internal/dtx"
	"preemptdb/internal/pcontext"
)

// crossShardKeys returns two keys that hash to different shards (the second
// onto a different shard than the first).
func crossShardKeys(t *testing.T, shards int) ([]byte, []byte) {
	t.Helper()
	a := []byte("acct-0")
	sa := dtx.ShardOf(a, shards)
	for i := 1; i < 1000; i++ {
		b := []byte(fmt.Sprintf("acct-%d", i))
		if dtx.ShardOf(b, shards) != sa {
			return a, b
		}
	}
	t.Fatal("no cross-shard key pair found")
	return nil, nil
}

// TestTraceTxnCrossShard drives a multi-shard 2PC transaction and checks that
// DB.TraceTxn exports one merged, validator-clean Chrome trace containing the
// admission, execution, WAL, and 2PC prepare/resolve spans from every
// participant shard, stitched by flow events.
func TestTraceTxnCrossShard(t *testing.T) {
	db, err := Open("", Config{Shards: 2, Workers: 2, TraceSampling: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("kv")
	ka, kb := crossShardKeys(t, 2)

	pending, err := db.SubmitOpts(TxnOptions{Priority: High}, func(tx *Txn) error {
		if err := tx.Put("kv", ka, []byte("1")); err != nil {
			return err
		}
		return tx.Put("kv", kb, []byte("2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pending.Wait(); err != nil {
		t.Fatal(err)
	}
	id := pending.TraceID()
	if id == 0 {
		t.Fatal("Pending.TraceID returned 0")
	}

	data, err := db.TraceTxnWait(id, time.Second)
	if err != nil {
		t.Fatalf("TraceTxn: %v", err)
	}
	if err := pcontext.ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, data)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	shardPids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if e.Name == "2pc-prepare" || e.Name == "2pc-resolve" {
			shardPids[e.Pid] = true
		}
	}
	for _, want := range []string{
		"admission+queue", fmt.Sprintf("txn %d", id), "txn-end",
		"wal group-commit wait", "2pc-prepare", "2pc-resolve", "2pc-decision", "txn-flow",
	} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span/event\nnames: %v", want, names)
		}
	}
	// Both participant shards must contribute prepare+resolve spans on their
	// own synthetic tracks.
	if len(shardPids) != 2 {
		t.Errorf("2PC spans from %d shard tracks, want 2 (pids %v)", len(shardPids), shardPids)
	}
	if names["2pc-prepare"] < 2 || names["2pc-resolve"] < 2 {
		t.Errorf("want >=2 prepare and resolve spans, got %d/%d", names["2pc-prepare"], names["2pc-resolve"])
	}
	// Every staged step waits on its group-commit batch and says so: both
	// participants' prepares and both resolves (the decision record commits
	// on a private nil-context transaction, which has no ring to write to).
	if n := names["wal group-commit wait"]; n != 4 {
		t.Errorf("wal-wait spans = %d, want 4 (2 prepares + 2 resolves)", n)
	}
}

// TestClientSuppliedTraceID checks that a caller-provided trace id names the
// transaction in the rings verbatim.
func TestClientSuppliedTraceID(t *testing.T) {
	db, err := Open("", Config{TraceSampling: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("kv")

	const want = uint64(0xABCDEF01)
	pending, err := db.SubmitOpts(TxnOptions{TraceID: want}, func(tx *Txn) error {
		return tx.Put("kv", []byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pending.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := pending.TraceID(); got != want {
		t.Fatalf("TraceID = %d, want %d", got, want)
	}
	data, err := db.TraceTxnWait(want, time.Second)
	if err != nil {
		t.Fatalf("TraceTxn under client id: %v", err)
	}
	if err := pcontext.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderOnSLOBreach induces an SLO breach and checks the captured
// bundle is complete: breach identification, metrics, scheduler state, and
// trace rings.
func TestFlightRecorderOnSLOBreach(t *testing.T) {
	dir := t.TempDir()
	db, err := Open("", Config{
		Shards:            2,
		SLOHigh:           time.Nanosecond, // every hi txn breaches
		SLOCooldown:       time.Millisecond,
		FlightRecorderDir: dir,
		TraceSampling:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("kv")

	if err := db.Exec(High, func(tx *Txn) error {
		return tx.Put("kv", []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	var rec *FlightRecord
	for i := 0; i < 500 && rec == nil; i++ {
		rec = db.LastFlightRecord()
		time.Sleep(time.Millisecond)
	}
	if rec == nil {
		t.Fatal("no flight record captured after an induced SLO breach")
	}
	if rec.Class != "hi" {
		t.Errorf("breach class = %q, want hi", rec.Class)
	}
	if rec.LatencyNanos <= rec.SLONanos || rec.SLONanos != 1 {
		t.Errorf("latency %d / slo %d: breach should exceed target", rec.LatencyNanos, rec.SLONanos)
	}
	if rec.Stats.SLOBreachesHi == 0 {
		t.Error("bundle reports zero hi breaches")
	}
	if len(rec.Sched.Shards) != 2 {
		t.Errorf("bundle sched view has %d shards, want 2", len(rec.Sched.Shards))
	}
	for _, ss := range rec.Sched.Shards {
		if len(ss.Workers) == 0 {
			t.Errorf("shard %d: no worker state in bundle", ss.Shard)
		}
		for _, ws := range ss.Workers {
			if len(ws.Slots) == 0 {
				t.Errorf("shard %d worker %d: empty slot table", ss.Shard, ws.Worker)
			}
		}
	}
	if rec.Stats.Commits == 0 {
		t.Error("bundle stats show zero commits")
	}
	if len(rec.Trace) == 0 {
		t.Error("bundle has no trace rings despite tracing enabled")
	}
	if db.Stats().SLOBreachesHi == 0 {
		t.Error("DB.Stats reports zero hi breaches")
	}

	// The bundle must round-trip as JSON (the /debug/flight and on-disk form).
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("bundle does not serialize: %v", err)
	}
}

// TestIntrospectionUnderFire hammers every introspection surface — SchedState,
// Metrics, TraceSnapshot, TraceTxn — while a preemption-heavy workload with
// cancellations and deadline unwinds runs, asserting no torn slot-table reads
// (invalid state/class combinations) and exactly-once span closure (per-tag
// txn-start and txn-end event counts agree for finished transactions). Run
// with -race to check the sampling paths are data-race-free.
func TestIntrospectionUnderFire(t *testing.T) {
	db, err := Open("", Config{
		Shards:        2,
		Workers:       2,
		Policy:        PolicyPreempt,
		TraceSampling: 1,
		TraceCapacity: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("kv")

	// Preload the working set serially: the concurrent phase then only
	// updates existing keys, so the index sees no structural inserts while
	// being hammered (matching the torture tests' access discipline).
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := db.Exec(Low, func(tx *Txn) error {
			return tx.Put("kv", key, []byte("seed"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inFlight sync.WaitGroup

	// Low-priority churn with occasional cancels and tight deadlines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			key := []byte(fmt.Sprintf("k%d", i%64))
			opts := TxnOptions{}
			if i%7 == 0 {
				opts.Timeout = 50 * time.Microsecond
			}
			pending, err := db.SubmitOpts(opts, func(tx *Txn) error {
				for j := 0; j < 32; j++ {
					if err := tx.Put("kv", key, []byte("v")); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				continue // queue full under churn: fine
			}
			inFlight.Add(1)
			go func(p *Pending, cancel bool) {
				defer inFlight.Done()
				if cancel {
					p.Cancel()
				}
				p.Wait()
			}(pending, i%5 == 0)
		}
	}()

	// High-priority interrupt stream driving preemptions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Exec(High, func(tx *Txn) error {
				_, err := tx.Get("kv", []byte("k1"))
				if IsNotFound(err) {
					return nil
				}
				return err
			})
		}
	}()

	// Introspection hammer: every surface, as fast as possible.
	var samples atomic.Int64
	validStates := map[string]bool{"idle": true, "running": true, "preempted": true}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dbg := db.SchedState()
				for _, ss := range dbg.Shards {
					for _, ws := range ss.Workers {
						for _, slot := range ws.Slots {
							if !validStates[slot.State] {
								t.Errorf("torn slot read: state %q", slot.State)
								return
							}
							if slot.State == "idle" && (slot.Class != "" || slot.TraceTag != 0) {
								t.Errorf("torn slot read: idle slot with class %q tag %d", slot.Class, slot.TraceTag)
								return
							}
							if slot.State != "idle" && slot.Class == "" {
								t.Errorf("torn slot read: %s slot without class", slot.State)
								return
							}
						}
					}
				}
				db.Metrics()
				db.TraceSnapshot()
				db.TraceTxn(uint64(samples.Add(1))) // mostly misses; must never tear
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	inFlight.Wait()

	// Exactly-once span closure: within the surviving ring window, a tag with
	// both endpoints present must have them pair 1:1. (Ring wrap can drop a
	// txn-start whose txn-end survives, so only equal-presence is asserted
	// when both endpoint kinds are in the window.)
	starts, ends := map[uint64]int{}, map[uint64]int{}
	cores, err := db.traceEvents()
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range cores {
		for _, e := range ce.Events {
			switch e.Kind {
			case pcontext.EvTxnStart:
				starts[e.Tag]++
			case pcontext.EvTxnEnd:
				ends[e.Tag]++
			}
		}
	}
	for tag, n := range starts {
		if m, ok := ends[tag]; ok && m != n {
			t.Errorf("txn %d: %d start events but %d end events", tag, n, m)
		}
	}
}
