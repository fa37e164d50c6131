package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preemptdb"
)

// startEdgeServer starts a server on a DB with the given front-end config,
// returning the server and its address. configure (optional) runs before the
// listener opens.
func startEdgeServer(t *testing.T, cfg preemptdb.Config, configure func(*Server)) (*Server, string) {
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
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, addr.String()
}

func txnFrame(prio uint8, ops []ScriptOp) []byte { return encodeScript(nil, prio, ops) }

// TestFloodShedsLowAtTheQueuesAndAnswersEveryFrame: overload has one control,
// the bounded per-worker queues. One worker with a one-slot low queue is
// flooded by several connections pipelining full-table scans at Low while one
// connection sends Puts at High, one at a time. The flood runs until the
// scheduler has refused at least one request. Every frame then has exactly one
// reply, a Low reply is either OK or the typed queue-full status, and no High
// request is refused.
func TestFloodShedsLowAtTheQueuesAndAnswersEveryFrame(t *testing.T) {
	const (
		rows     = 2000
		lowConns = 4
		depth    = 8 // scans per pipelined batch
		minPuts  = 10
	)
	srv, addr := startEdgeServer(t, preemptdb.Config{Workers: 1, LoQueueSize: 1, Policy: preemptdb.PolicyPreempt}, nil)
	db := srv.db
	db.CreateTable("kv")
	if err := db.Run(func(tx *preemptdb.Txn) error {
		for i := 0; i < rows; i++ {
			if err := tx.Insert("kv", []byte(fmt.Sprintf("k%05d", i)), make([]byte, 32)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	shed := func() bool { return db.Stats().AbortsQueueFull > 0 }

	// exchange writes frames in one write (beside the reads) and reads one
	// reply per frame; a missing reply shows as the watchdog deadline.
	exchange := func(conn net.Conn, frames [][]byte) ([]uint8, error) {
		conn.SetDeadline(time.Now().Add(60 * time.Second)) // hang watchdog
		var batch bytes.Buffer
		for _, f := range frames {
			sendFrame(&batch, f)
		}
		werr := make(chan error, 1)
		go func() { _, err := conn.Write(batch.Bytes()); werr <- err }()
		statuses := make([]uint8, len(frames))
		for i := range frames {
			raw, err := recvFrame(conn)
			if err != nil {
				return nil, fmt.Errorf("reply %d of %d: %w", i, len(frames), err)
			}
			if statuses[i], _, _, err = decodeResults(raw); err != nil {
				return nil, fmt.Errorf("reply %d of %d: %w", i, len(frames), err)
			}
		}
		return statuses, <-werr
	}
	// noExtraReply checks that a ping's reply is the next frame on conn.
	noExtraReply := func(conn net.Conn) error {
		st, err := exchange(conn, [][]byte{{reqPing}})
		if err == nil && st[0] != statusOK {
			err = fmt.Errorf("reply after the flood has status %d, want the ping's", st[0])
		}
		return err
	}

	scan := txnFrame(0, []ScriptOp{{Op: opScan, Table: "kv"}})
	scans := make([][]byte, depth)
	for i := range scans {
		scans[i] = scan
	}
	var wg sync.WaitGroup
	errs := make(chan error, lowConns+1)
	var lowOK, lowFull atomic.Int64
	for c := 0; c < lowConns; c++ {
		conn := mustDialRaw(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !shed() {
				statuses, err := exchange(conn, scans)
				if err != nil {
					errs <- fmt.Errorf("low connection: %w", err)
					return
				}
				for _, st := range statuses {
					switch st {
					case statusOK:
						lowOK.Add(1)
					case statusQueueFull:
						lowFull.Add(1)
					default:
						errs <- fmt.Errorf("low scan reply status %d, want OK or queue-full", st)
						return
					}
				}
			}
			if err := noExtraReply(conn); err != nil {
				errs <- fmt.Errorf("low connection: %w", err)
			}
		}()
	}
	hi := mustDialRaw(t, addr)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < minPuts || !shed(); i++ {
			put := txnFrame(1, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte(fmt.Sprintf("h%06d", i)), Value: []byte("v")}})
			statuses, err := exchange(hi, [][]byte{put})
			if err != nil {
				errs <- fmt.Errorf("high connection: %w", err)
				return
			}
			if statuses[0] != statusOK {
				errs <- fmt.Errorf("high put %d: status %d, want OK", i, statuses[0])
				return
			}
		}
		if err := noExtraReply(hi); err != nil {
			errs <- fmt.Errorf("high connection: %w", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lowFull.Load() == 0 {
		t.Error("no low reply carried the queue-full status, though the scheduler refused a request")
	}
	t.Logf("low replies: %d ok, %d queue-full; AbortsQueueFull=%d", lowOK.Load(), lowFull.Load(), db.Stats().AbortsQueueFull)
}

// TestMalformedFirstFrameCannotClaimHighClass: garbage, truncated, and
// non-transactional first frames reach no scheduler queue, High or Low. Each
// gets its typed reply (an error frame; pong for ping), no transaction runs
// or aborts, and the connection survives to run a well-formed High Put.
func TestMalformedFirstFrameCannotClaimHighClass(t *testing.T) {
	firstFrames := map[string]struct {
		payload []byte
		want    uint8
	}{
		"empty":              {[]byte{}, statusError},
		"unknown kind":       {[]byte{0xEE, 1}, statusError},
		"truncated txn":      {[]byte{reqTxn}, statusError},               // no priority byte
		"truncated deadline": {[]byte{reqTxnDeadline, 0x80}, statusError}, // unterminated uvarint
		"ping":               {[]byte{reqPing}, statusOK},
	}
	for name, first := range firstFrames {
		t.Run(name, func(t *testing.T) {
			srv, addr := startEdgeServer(t, preemptdb.Config{}, nil)
			srv.db.CreateTable("kv")
			before := srv.db.Stats()

			probe := mustDialRaw(t, addr)
			status, msg := roundTripRaw(t, probe, first.payload)
			if status != first.want || msg == "" {
				t.Fatalf("first frame %q: status=%d msg=%q, want typed status %d", name, status, msg, first.want)
			}
			after := srv.db.Stats()
			if after.Commits != before.Commits || after.Aborts != before.Aborts {
				t.Fatalf("first frame %q was scheduled: commits %d→%d, aborts %d→%d",
					name, before.Commits, after.Commits, before.Aborts, after.Aborts)
			}

			hi := txnFrame(1, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte("k"), Value: []byte("v")}})
			if status, msg := roundTripRaw(t, probe, hi); status != statusOK {
				t.Fatalf("High Put after first frame %q: status=%d msg=%q", name, status, msg)
			}
			// The counter sees wire transactions, so the check above is not vacuous.
			if srv.db.Stats().Commits == after.Commits {
				t.Fatal("High Put over the wire did not count a commit")
			}
		})
	}
}

// wireResponse is one decoded response frame plus its raw payload.
type wireResponse struct {
	status  uint8
	msg     string
	results []OpResult
	raw     []byte
}

// pipeline sends every frame before reading anything — in one write, or in
// writes of chunk bytes when chunk > 0 — and returns the responses in order.
// The writes run beside the reads, so a response larger than the socket
// buffers cannot wedge the exchange.
func pipeline(t *testing.T, conn net.Conn, frames [][]byte, chunk int) []wireResponse {
	t.Helper()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	var batch bytes.Buffer
	for _, f := range frames {
		if err := sendFrame(&batch, f); err != nil {
			t.Fatal(err)
		}
	}
	out := batch.Bytes()
	if chunk <= 0 {
		chunk = len(out)
	}
	werr := make(chan error, 1)
	go func() {
		for len(out) > 0 {
			n := min(chunk, len(out))
			if _, err := conn.Write(out[:n]); err != nil {
				werr <- err
				return
			}
			out = out[n:]
		}
		werr <- nil
	}()
	resps := make([]wireResponse, len(frames))
	for i := range resps {
		raw, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		r := &resps[i]
		r.raw = raw
		if r.status, r.msg, r.results, err = decodeResults(raw); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("writing the batch: %v", err)
	}
	return resps
}

// TestPipelinedWorkloadResponses pipelines one mixed workload in a single
// write and checks every response on its own: order, statuses, values, scan
// contents and limits, typed errors for a failed script and for a malformed
// payload inside a well-delimited frame, and the connection outliving both.
func TestPipelinedWorkloadResponses(t *testing.T) {
	const rows = 16
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

	type step struct {
		frame []byte
		check func(t *testing.T, r wireResponse)
	}
	okWith := func(n int) func(*testing.T, wireResponse) {
		return func(t *testing.T, r wireResponse) {
			if r.status != statusOK || r.msg != "" || len(r.results) != n {
				t.Fatalf("status=%d msg=%q results=%d, want statusOK with %d results", r.status, r.msg, len(r.results), n)
			}
		}
	}
	pong := func(t *testing.T, r wireResponse) {
		if r.status != statusOK || r.msg != "pong" || len(r.results) != 0 {
			t.Fatalf("ping: status=%d msg=%q results=%d", r.status, r.msg, len(r.results))
		}
	}
	scanIs := func(wantKeys []int, wantVals map[int]string) func(*testing.T, wireResponse) {
		return func(t *testing.T, r wireResponse) {
			okWith(1)(t, r)
			res := r.results[0]
			if len(res.Keys) != len(wantKeys) || len(res.Values) != len(wantKeys) {
				t.Fatalf("scan returned %d keys / %d values, want %d", len(res.Keys), len(res.Values), len(wantKeys))
			}
			for j, i := range wantKeys {
				want := string(val(i))
				if v, ok := wantVals[i]; ok {
					want = v
				}
				if !bytes.Equal(res.Keys[j], key(i)) || string(res.Values[j]) != want {
					t.Fatalf("scan row %d = %q→%q, want %q→%q", j, res.Keys[j], res.Values[j], key(i), want)
				}
			}
		}
	}

	steps := []step{
		{[]byte{reqPing}, pong},
		{[]byte{reqCreateTable, 2, 'k', 'v'}, okWith(0)},
	}
	for i := 0; i < rows; i++ {
		steps = append(steps, step{
			txnFrame(uint8(i%2), []ScriptOp{{Op: opInsert, Table: "kv", Key: key(i), Value: val(i)}}),
			func(t *testing.T, r wireResponse) {
				okWith(1)(t, r)
				if res := r.results[0]; res.Status != statusOK || len(res.Value) != 0 || len(res.Keys) != 0 {
					t.Fatalf("insert result %+v", res)
				}
			},
		})
	}
	for i := 0; i < rows; i++ {
		steps = append(steps, step{
			txnFrame(0, []ScriptOp{{Op: opGet, Table: "kv", Key: key(i)}}),
			func(t *testing.T, r wireResponse) {
				okWith(1)(t, r)
				if res := r.results[0]; res.Status != statusOK || !bytes.Equal(res.Value, val(i)) {
					t.Fatalf("get %s = status %d value %q, want %q", key(i), res.Status, res.Value, val(i))
				}
			},
		})
	}
	var afterDelete []int // every row but k001, ascending
	for i := 0; i < rows; i++ {
		if i != 1 {
			afterDelete = append(afterDelete, i)
		}
	}
	updated := map[int]string{0: "v0'"}
	steps = append(steps,
		// Multi-op script: update + read-your-write + delete + in-band miss.
		step{txnFrame(1, []ScriptOp{
			{Op: opUpdate, Table: "kv", Key: key(0), Value: []byte("v0'")},
			{Op: opGet, Table: "kv", Key: key(0)},
			{Op: opDelete, Table: "kv", Key: key(1)},
			{Op: opGet, Table: "kv", Key: key(1)},
		}), func(t *testing.T, r wireResponse) {
			okWith(4)(t, r)
			if r.results[0].Status != statusOK || r.results[2].Status != statusOK {
				t.Fatalf("write op statuses %d, %d", r.results[0].Status, r.results[2].Status)
			}
			if r.results[1].Status != statusOK || string(r.results[1].Value) != "v0'" {
				t.Fatalf("read-your-write = status %d value %q", r.results[1].Status, r.results[1].Value)
			}
			if r.results[3].Status != statusNotFound || len(r.results[3].Value) != 0 {
				t.Fatalf("read of deleted row = status %d value %q, want in-band statusNotFound", r.results[3].Status, r.results[3].Value)
			}
		}},
		// Scans: the whole table ascending, then descending with a limit.
		step{txnFrame(0, []ScriptOp{{Op: opScan, Table: "kv"}}), scanIs(afterDelete, updated)},
		step{txnFrame(0, []ScriptOp{{Op: opScanDesc, Table: "kv", Limit: 5}}), scanIs([]int{15, 14, 13, 12, 11}, nil)},
		// A failed script is a typed status with a message and no results.
		step{txnFrame(0, []ScriptOp{{Op: opInsert, Table: "kv", Key: key(2), Value: []byte("x")}}),
			func(t *testing.T, r wireResponse) {
				if r.status != statusDuplicate || r.msg == "" || len(r.results) != 0 {
					t.Fatalf("duplicate insert: status=%d msg=%q results=%d", r.status, r.msg, len(r.results))
				}
			}},
		step{txnFrame(0, []ScriptOp{{Op: opGet, Table: "nope", Key: []byte("k")}}),
			func(t *testing.T, r wireResponse) {
				if r.status != statusError || !strings.Contains(r.msg, "nope") || len(r.results) != 0 {
					t.Fatalf("unknown table: status=%d msg=%q results=%d", r.status, r.msg, len(r.results))
				}
			}},
		// Malformed payload inside a well-delimited frame: typed error, and
		// the frames behind it are still answered.
		step{[]byte{reqTxn, 0, 1, opGet, 0xFF}, func(t *testing.T, r wireResponse) {
			if r.status != statusError || !strings.Contains(r.msg, ErrMalformed.Error()) || len(r.results) != 0 {
				t.Fatalf("malformed payload: status=%d msg=%q results=%d", r.status, r.msg, len(r.results))
			}
		}},
		step{txnFrame(0, []ScriptOp{{Op: opGet, Table: "kv", Key: key(2)}}),
			func(t *testing.T, r wireResponse) {
				okWith(1)(t, r)
				if !bytes.Equal(r.results[0].Value, val(2)) {
					t.Fatalf("row after failed duplicate insert = %q, want %q", r.results[0].Value, val(2))
				}
			}},
		step{[]byte{reqPing}, pong},
	)

	_, addr := startEdgeServer(t, preemptdb.Config{}, nil)
	conn := mustDialRaw(t, addr)
	frames := make([][]byte, len(steps))
	for i, st := range steps {
		frames[i] = st.frame
	}
	for i, r := range pipeline(t, conn, frames, 0) {
		t.Run(fmt.Sprintf("response%02d", i), func(t *testing.T) { steps[i].check(t, r) })
	}
}

// TestDeliveryDoesNotChangeResponses: how the bytes arrive — everything in
// one write, one byte per write, or in pieces that split headers and bodies
// across reads — changes no response byte. The stream pipelines a Put and a
// Get of a value larger than the read buffer behind small frames, so the
// buffer has to grow for one frame while others are already parsed.
func TestDeliveryDoesNotChangeResponses(t *testing.T) {
	big := make([]byte, connBuf+5000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	frames := [][]byte{
		{reqCreateTable, 2, 'k', 'v'},
		txnFrame(0, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte("small"), Value: []byte("s")}}),
		txnFrame(0, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte("big"), Value: big}}),
		txnFrame(1, []ScriptOp{{Op: opGet, Table: "kv", Key: []byte("big")}, {Op: opGet, Table: "kv", Key: []byte("small")}}),
		{reqPing},
	}
	var want []wireResponse
	for _, chunk := range []int{0, 1, 4093} {
		_, addr := startEdgeServer(t, preemptdb.Config{}, nil)
		got := pipeline(t, mustDialRaw(t, addr), frames, chunk)
		if want == nil {
			want = got
			if res := got[3].results; got[3].status != statusOK || len(res) != 2 ||
				!bytes.Equal(res[0].Value, big) || string(res[1].Value) != "s" {
				t.Fatalf("one write: the large value did not round-trip (status %d, %d results)", got[3].status, len(res))
			}
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i].raw, want[i].raw) {
				t.Fatalf("writes of %d bytes: response %d differs from the one-write response (status %d vs %d, %d vs %d bytes)",
					chunk, i, got[i].status, want[i].status, len(got[i].raw), len(want[i].raw))
			}
		}
	}
}

// TestPeerThatNeverReadsIsClosedWithBoundedMemory: a client that pipelines
// requests and never reads a response fills the socket buffers; the server's
// write then times out and the connection closes. Until then the responses
// it could not send must not have accumulated in the connection's buffer.
func TestPeerThatNeverReadsIsClosedWithBoundedMemory(t *testing.T) {
	srv, addr := startEdgeServer(t, preemptdb.Config{}, func(s *Server) {
		s.WriteTimeout = 300 * time.Millisecond
	})
	srv.db.CreateTable("kv")
	row := make([]byte, 32<<10)
	if err := srv.db.Run(func(tx *preemptdb.Txn) error { return tx.Put("kv", []byte("row"), row) }); err != nil {
		t.Fatal(err)
	}
	nc := mustDialRaw(t, addr)
	var victim *conn
	waitFor(t, "the server to register the connection", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.open {
			victim = c
		}
		return victim != nil
	})

	// One read's worth of these 20-byte requests asks for ~100 MiB of
	// responses. Keep sending until the server stops taking them.
	var batch bytes.Buffer
	for i := 0; i < 4096; i++ {
		sendFrame(&batch, txnFrame(0, []ScriptOp{{Op: opGet, Table: "kv", Key: []byte("row")}}))
	}
	go func() {
		nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		for {
			if _, err := nc.Write(batch.Bytes()); err != nil {
				return
			}
		}
	}()

	// conn.close removes the connection under srv.mu after its goroutine's
	// last use of the buffer, so the read below is ordered after it.
	waitFor(t, "WriteTimeout to close the connection", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, open := srv.open[victim]
		return !open
	})
	if c := cap(victim.wbuf); c > 4*connBuf {
		t.Fatalf("response buffer grew to %d bytes behind a peer that never read (bound %d)", c, 4*connBuf)
	}
	if open := srv.ConnsOpen(); open != 0 {
		t.Fatalf("ConnsOpen = %d after the close", open)
	}
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFastPathCachedGetOverWire: with the hot-key cache enabled, a repeated
// single-Get is served from the cache with a byte-identical response, and
// the hit registers in Stats.
func TestFastPathCachedGetOverWire(t *testing.T) {
	srv, addr := startEdgeServer(t, preemptdb.Config{CacheBytes: 1 << 20}, nil)
	srv.db.CreateTable("kv")
	conn := mustDialRaw(t, addr)
	put := txnFrame(0, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte("hot"), Value: []byte("val")}})
	if status, msg := roundTripRaw(t, conn, put); status != statusOK {
		t.Fatalf("put: status=%d msg=%q", status, msg)
	}

	get := txnFrame(0, []ScriptOp{{Op: opGet, Table: "kv", Key: []byte("hot")}})
	readResp := func() []byte {
		t.Helper()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := sendFrame(conn, get); err != nil {
			t.Fatal(err)
		}
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := append([]byte(nil), readResp()...) // fills the cache via the engine
	hitsBefore := srv.db.Stats().CacheHits
	second := readResp() // served from the cache
	if !bytes.Equal(first, second) {
		t.Fatalf("fast-path response differs:\n  engine: %x\n  cache:  %x", first, second)
	}
	status, _, results, err := decodeResults(second)
	if err != nil || status != statusOK || len(results) != 1 || !bytes.Equal(results[0].Value, []byte("val")) {
		t.Fatalf("cached get: status=%d results=%v err=%v", status, results, err)
	}
	if srv.db.Stats().CacheHits <= hitsBefore {
		t.Fatal("repeated get did not hit the cache")
	}

	// Invalidation visibility over the wire: update, then read the new value.
	put2 := txnFrame(0, []ScriptOp{{Op: opPut, Table: "kv", Key: []byte("hot"), Value: []byte("val2")}})
	if status, msg := roundTripRaw(t, conn, put2); status != statusOK {
		t.Fatalf("second put: status=%d msg=%q", status, msg)
	}
	if err := sendFrame(conn, get); err != nil {
		t.Fatal(err)
	}
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, results, err = decodeResults(resp); err != nil || !bytes.Equal(results[0].Value, []byte("val2")) {
		t.Fatalf("post-update get = %v err=%v, want val2", results, err)
	}
}

// TestPipelinedBatchThenEOF: a batch whose first frame creates the table the
// rest write to is classified, executed in order and answered completely, and
// the client closing its side afterwards does not wedge the server.
func TestPipelinedBatchThenEOF(t *testing.T) {
	_, addr := startEdgeServer(t, preemptdb.Config{}, nil)
	conn := mustDialRaw(t, addr)
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var batch bytes.Buffer
	sendFrame(&batch, []byte{reqCreateTable, 2, 'k', 'v'})
	const K = 48
	for i := 0; i < K; i++ {
		sendFrame(&batch, txnFrame(1, []ScriptOp{
			{Op: opPut, Table: "kv", Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")},
		}))
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= K; i++ {
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if status, msg, _, err := decodeResults(resp); err != nil || status != statusOK {
			t.Fatalf("response %d: status=%d msg=%q err=%v", i, status, msg, err)
		}
	}
	// EOF handling: closing our side must not wedge the server.
	conn.Close()
}

// TestIdleTimeoutSkipsBusyConns: a connection whose requests are still
// executing is not idle, even when it delivers no bytes for longer than the
// timeout; once it has nothing in flight the timeout reclaims it.
func TestIdleTimeoutSkipsBusyConns(t *testing.T) {
	srv, addr := startEdgeServer(t, preemptdb.Config{}, func(s *Server) {
		s.IdleTimeout = 150 * time.Millisecond
	})
	srv.db.CreateTable("kv")
	conn := mustDialRaw(t, addr)
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	// A batch big enough to keep the connection executing past the idle timeout.
	var batch bytes.Buffer
	const K = 64
	var val [4096]byte
	for i := 0; i < K; i++ {
		sendFrame(&batch, txnFrame(0, []ScriptOp{
			{Op: opPut, Table: "kv", Key: []byte(fmt.Sprintf("k%04d", i)), Value: val[:]},
			{Op: opScan, Table: "kv", Limit: 64},
		}))
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < K; i++ {
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v (idle timeout closed a busy conn?)", i, err)
		}
		if status, _, _, err := decodeResults(resp); err != nil || status != statusOK {
			t.Fatalf("response %d: status=%d err=%v", i, status, err)
		}
		time.Sleep(2 * time.Millisecond) // stretch the quiet period while work is in flight
	}
	// Once genuinely idle, the timeout must reclaim the connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := recvFrame(conn); err == nil {
		t.Fatal("idle connection survived the timeout")
	} else if err != io.EOF {
		if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatal("idle connection not closed by the timeout")
		}
	}
}
