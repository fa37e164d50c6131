package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"preemptdb"
	"preemptdb/internal/pcontext"
)

// startServer returns a running server + connected client.
func startServer(t *testing.T, cfg preemptdb.Config) (*Client, *Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	db, err := preemptdb.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

func TestPing(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestCRUDOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("kv", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("kv", []byte("a"), []byte("dup")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	v, err := c.Get("kv", []byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := c.Put("kv", []byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("kv", []byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestAtomicScript(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	c.CreateTable("accounts")
	if _, err := c.Txn(preemptdb.Low, []ScriptOp{
		InsertOp("accounts", []byte("x"), []byte{100}),
		InsertOp("accounts", []byte("y"), []byte{100}),
	}); err != nil {
		t.Fatal(err)
	}
	// A script that fails midway must roll back entirely.
	_, err := c.Txn(preemptdb.Low, []ScriptOp{
		UpdateOp("accounts", []byte("x"), []byte{50}),
		UpdateOp("accounts", []byte("missing"), []byte{1}), // fails
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	v, _ := c.Get("accounts", []byte("x"))
	if v[0] != 100 {
		t.Fatalf("partial script committed: x=%d", v[0])
	}
	// Read-your-writes inside a script.
	res, err := c.Txn(preemptdb.Low, []ScriptOp{
		UpdateOp("accounts", []byte("x"), []byte{75}),
		GetOp("accounts", []byte("x")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Value[0] != 75 {
		t.Fatalf("read-your-writes: %d", res[1].Value[0])
	}
}

func TestScansOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	c.CreateTable("t")
	var ops []ScriptOp
	for i := 0; i < 20; i++ {
		ops = append(ops, InsertOp("t", []byte{byte(i)}, []byte{byte(i * 2)}))
	}
	if _, err := c.Txn(preemptdb.Low, ops); err != nil {
		t.Fatal(err)
	}
	keys, values, err := c.Scan("t", []byte{5}, []byte{15}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0][0] != 5 || values[9][0] != 28 {
		t.Fatalf("scan: %d rows", len(keys))
	}
	// Limit.
	keys, _, err = c.Scan("t", nil, nil, 3)
	if err != nil || len(keys) != 3 {
		t.Fatalf("limited scan: %d rows, %v", len(keys), err)
	}
	// Descending.
	res, err := c.Txn(preemptdb.Low, []ScriptOp{ScanDescOp("t", nil, nil, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Keys) != 2 || res[0].Keys[0][0] != 19 {
		t.Fatalf("desc scan: %v", res[0].Keys)
	}
}

func TestGetMissingInsideScript(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	c.CreateTable("t")
	res, err := c.Txn(preemptdb.Low, []ScriptOp{GetOp("t", []byte("nope"))})
	if err != nil {
		t.Fatal(err)
	}
	if !NotFound(res[0]) {
		t.Fatal("missing key not flagged")
	}
}

func TestHighPriorityOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{Policy: preemptdb.PolicyPreempt})
	c.CreateTable("t")
	if _, err := c.Txn(preemptdb.High, []ScriptOp{
		PutOp("t", []byte("hi"), []byte("there")),
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats == "" {
		t.Fatal("empty stats")
	}
}

func TestUnknownTableError(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	if _, err := c.Get("missing-table", []byte("k")); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	c0, srv := startServer(t, preemptdb.Config{Workers: 2})
	c0.CreateTable("ctr")
	c0.Insert("ctr", []byte("n"), []byte{0, 0})
	addr := srv.lis.Addr().String()

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				key := []byte(fmt.Sprintf("c%d-%d", id, j))
				if err := cl.Insert("ctr", key, []byte("v")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	keys, _, err := c0.Scan("ctr", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != clients*perClient+1 {
		t.Fatalf("rows = %d", len(keys))
	}
}

// TestConcurrentLowPriorityClientsLoseNoReply: Client.Get/Put run at Low, so
// every connection's goroutine submits into the workers' low-priority queues
// at once — one worker here, so all eight share one queue. Every request must
// be answered; a reply lost in the queue shows as a read deadline expiring.
func TestConcurrentLowPriorityClientsLoseNoReply(t *testing.T) {
	c0, srv := startServer(t, preemptdb.Config{Workers: 1})
	if err := c0.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	addr := srv.lis.Addr().String()

	const clients, perClient = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			cl.conn.SetDeadline(time.Now().Add(60 * time.Second))
			for j := 0; j < perClient; j++ {
				key := []byte(fmt.Sprintf("c%d-%d", id, j%16))
				val := []byte(fmt.Sprintf("%d", j))
				if err := cl.Put("kv", key, val); err != nil {
					errs <- fmt.Errorf("client %d put %d: %w", id, j, err)
					return
				}
				if got, err := cl.Get("kv", key); err != nil || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("client %d get %d: %q, %v (want %q)", id, j, got, err, val)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	_, srv := startServer(t, preemptdb.Config{})
	conn, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame with an unknown request type.
	if err := sendFrame(conn, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	status, msg, _, err := decodeResults(resp)
	if err != nil || status != statusError || msg == "" {
		t.Fatalf("status=%d msg=%q err=%v", status, msg, err)
	}
	// Connection must be closed afterwards.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := recvFrame(conn); err == nil {
		t.Fatal("connection survived protocol error")
	}
}

// TestOversizeFrameRejected: a response whose length prefix is over maxFrame
// fails the call with ErrFrameTooLarge instead of sizing a buffer to it.
func TestOversizeFrameRejected(t *testing.T) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		if _, err := recvFrame(sc); err != nil {
			return
		}
		sc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0})
	}()
	cl := &Client{conn: cc}
	err := cl.Ping()
	cl.Close()
	<-done
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtocolRoundtripQuick(t *testing.T) {
	err := quick.Check(func(table, index string, key, value []byte, limit uint32, hi bool) bool {
		ops := []ScriptOp{{Op: opScan, Table: table, Index: index, Key: key, Value: value, Limit: limit}}
		var prio uint8
		if hi {
			prio = 1
		}
		payload := encodeScript(nil, prio, ops)
		r := &reader{payload}
		kind, err := r.u8()
		if err != nil || kind != reqTxn {
			return false
		}
		gotPrio, gotOps, err := decodeScript(r)
		if err != nil || gotPrio != prio || len(gotOps) != 1 {
			return false
		}
		op := gotOps[0]
		return op.Table == table && op.Index == index &&
			bytes.Equal(op.Key, key) && bytes.Equal(op.Value, value) && op.Limit == limit
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResultsRoundtripQuick(t *testing.T) {
	err := quick.Check(func(status uint8, msg string, val []byte, k1, v1 []byte) bool {
		in := []OpResult{
			{Status: statusOK, Value: val},
			{Status: statusNotFound, Keys: [][]byte{k1}, Values: [][]byte{v1}},
		}
		payload := encodeResults(nil, status, msg, in)
		gs, gm, out, err := decodeResults(payload)
		if err != nil || gs != status || gm != msg || len(out) != 2 {
			return false
		}
		return bytes.Equal(out[0].Value, val) &&
			len(out[1].Keys) == 1 && bytes.Equal(out[1].Keys[0], k1) && bytes.Equal(out[1].Values[0], v1)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, srv := startServer(t, preemptdb.Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRequests drives the buffered write path: all K request frames
// go out in a single write before ANY response is read, so the server parses
// the whole batch off its read buffer, accumulates K responses in the write
// buffer, and flushes once when the batch drains. Responses must come back
// complete and in request order.
func TestPipelinedRequests(t *testing.T) {
	c, srv := startServer(t, preemptdb.Config{})
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const K = 32
	sendBatch := func(frames [][]byte) {
		t.Helper()
		var batch bytes.Buffer
		for _, f := range frames {
			if err := sendFrame(&batch, f); err != nil {
				t.Fatal(err)
			}
		}
		// One Write call: every frame is on the wire before the first read.
		if _, err := conn.Write(batch.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	// Batch 1: K inserts, pipelined.
	frames := make([][]byte, K)
	for i := range frames {
		key := []byte(fmt.Sprintf("k%03d", i))
		val := []byte(fmt.Sprintf("v%d", i))
		frames[i] = encodeScript(nil, 0, []ScriptOp{{Op: opInsert, Table: "kv", Key: key, Value: val}})
	}
	sendBatch(frames)
	for i := 0; i < K; i++ {
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("insert response %d: %v", i, err)
		}
		status, msg, _, err := decodeResults(resp)
		if err != nil || status != statusOK {
			t.Fatalf("insert response %d: status=%d msg=%q err=%v", i, status, msg, err)
		}
	}

	// Batch 2: K gets, pipelined; ordering is proven by each value matching
	// its request's key.
	for i := range frames {
		key := []byte(fmt.Sprintf("k%03d", i))
		frames[i] = encodeScript(nil, 0, []ScriptOp{{Op: opGet, Table: "kv", Key: key}})
	}
	sendBatch(frames)
	for i := 0; i < K; i++ {
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("get response %d: %v", i, err)
		}
		status, msg, results, err := decodeResults(resp)
		if err != nil || status != statusOK {
			t.Fatalf("get response %d: status=%d msg=%q err=%v", i, status, msg, err)
		}
		want := fmt.Sprintf("v%d", i)
		if len(results) != 1 || string(results[0].Value) != want {
			t.Fatalf("get response %d: got %q, want %q", i, results, want)
		}
	}

	// The plain client still works on its own connection after the raw
	// pipelined session (frame sync was never lost).
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedStateOverWire: the reqSchedState frame ships the live scheduler
// introspection snapshot as JSON.
func TestSchedStateOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{Workers: 2})
	raw, err := c.SchedState()
	if err != nil {
		t.Fatal(err)
	}
	var dbg preemptdb.SchedDebug
	if err := json.Unmarshal(raw, &dbg); err != nil {
		t.Fatalf("sched state is not valid JSON: %v\n%s", err, raw)
	}
	if len(dbg.Shards) == 0 {
		t.Fatal("sched state has no shards")
	}
	for _, ss := range dbg.Shards {
		if len(ss.Workers) != 2 {
			t.Fatalf("shard %d: %d workers in snapshot, want 2", ss.Shard, len(ss.Workers))
		}
		for _, ws := range ss.Workers {
			if len(ws.Slots) == 0 {
				t.Fatalf("worker %d: empty slot table", ws.Worker)
			}
		}
	}
}

// TestTxnTracedOverWire: the reqTxnTrace frame runs the script under a trace
// id and ships back the transaction's merged Chrome trace.
func TestTxnTracedOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{Workers: 1, TraceSampling: 1})
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	results, trace, err := c.TxnTraced(preemptdb.High, 0, time.Second, []ScriptOp{
		PutOp("kv", []byte("a"), []byte("1")),
		GetOp("kv", []byte("a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !bytes.Equal(results[1].Value, []byte("1")) {
		t.Fatalf("bad results: %+v", results)
	}
	if trace == nil {
		t.Fatal("no trace returned despite TraceSampling 1")
	}
	if err := pcontext.ValidateChromeTrace(trace); err != nil {
		t.Fatalf("wire trace invalid: %v", err)
	}
	// Client-supplied trace ids name the span verbatim.
	_, trace, err = c.TxnTraced(preemptdb.Low, 424242, time.Second, []ScriptOp{
		GetOp("kv", []byte("a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte("txn 424242")) {
		t.Fatal("client-supplied trace id missing from exported trace")
	}
}

// TestTxnTracedTracingDisabled: with tracing off the traced frame still
// commits and returns results — the trace is just absent.
func TestTxnTracedTracingDisabled(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{Workers: 1, TraceCapacity: -1})
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	results, trace, err := c.TxnTraced(preemptdb.Low, 0, 10*time.Millisecond, []ScriptOp{
		PutOp("kv", []byte("a"), []byte("1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("bad results: %+v", results)
	}
	if trace != nil {
		t.Fatalf("trace returned with tracing disabled: %s", trace)
	}
}
