package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"preemptdb"
)

// sendFrame writes payload to a raw connection as one frame.
func sendFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(nil, func(b []byte) []byte { return append(b, payload...) }))
	return err
}

// recvFrame reads one frame from a raw connection and no byte past it, so a
// test can mix it with other reads of the same connection.
func recvFrame(r io.Reader) ([]byte, error) {
	frame := make([]byte, 4)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	if _, _, err := cutFrame(frame); err != nil {
		return nil, err
	}
	frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return nil, err
	}
	payload, _, _ := cutFrame(frame)
	return payload, nil
}

// countingConn counts the Write and Read calls that reach a connection.
type countingConn struct {
	net.Conn
	writes, reads int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads++
	return c.Conn.Read(b)
}

// TestClientOneWriteOneReadPerRoundTrip: every request leaves in one Write
// (a length prefix written on its own is a TCP segment of its own under
// TCP_NODELAY) and every response that fits the read buffer arrives in one
// Read.
func TestClientOneWriteOneReadPerRoundTrip(t *testing.T) {
	_, srv := startServer(t, preemptdb.Config{})
	nc, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	cl := &Client{conn: cc}
	defer cl.Close()
	calls := []struct {
		name string
		call func() error
	}{
		{"Ping", cl.Ping},
		{"CreateTable", func() error { return cl.CreateTable("kv") }},
		{"Put", func() error { return cl.Put("kv", []byte("k"), []byte("v")) }},
		{"Get", func() error { _, err := cl.Get("kv", []byte("k")); return err }},
		{"TxnTimeout", func() error {
			_, err := cl.TxnTimeout(preemptdb.High, time.Second, []ScriptOp{GetOp("kv", []byte("k"))})
			return err
		}},
		{"Stats", func() error { _, err := cl.Stats(); return err }},
		{"Metrics", func() error { _, err := cl.Metrics(); return err }},
	}
	for _, c := range calls {
		cc.writes, cc.reads = 0, 0
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cc.writes != 1 || cc.reads != 1 {
			t.Errorf("%s: %d writes and %d reads, want 1 and 1", c.name, cc.writes, cc.reads)
		}
	}
}

// pipeClient returns a Client whose peer, over net.Pipe, answers every
// request with srv's response written in pieces of at most chunk bytes. Each
// piece is a Read of its own on the client's side.
func pipeClient(t *testing.T, srv *Server, chunk int) *Client {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		for {
			req, err := recvFrame(sc)
			if err != nil {
				return // the client closed its end
			}
			resp := appendFrame(nil, func(b []byte) []byte { return srv.respond(b, req) })
			for len(resp) > 0 {
				k := min(chunk, len(resp))
				if _, err := sc.Write(resp[:k]); err != nil {
					return
				}
				resp = resp[k:]
			}
		}
	}()
	t.Cleanup(func() {
		cc.Close()
		<-done
	})
	return &Client{conn: cc}
}

// TestClientResponseSplitAcrossReads: responses that arrive one byte per
// Read decode to the same results.
func TestClientResponseSplitAcrossReads(t *testing.T) {
	_, srv := startServer(t, preemptdb.Config{})
	cl := pipeClient(t, srv, 1)
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Put("kv", []byte{'k', byte('0' + i)}, bytes.Repeat([]byte{byte(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := cl.Get("kv", []byte("k7"))
	if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{7}, 7)) {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := cl.Get("kv", []byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
	}
	keys, vals, err := cl.Scan("kv", nil, nil, 0)
	if err != nil || len(keys) != 10 {
		t.Fatalf("Scan: %d keys, err %v", len(keys), err)
	}
	for i := range keys {
		if !bytes.Equal(keys[i], []byte{'k', byte('0' + i)}) || len(vals[i]) != i {
			t.Fatalf("row %d = %q/%v", i, keys[i], vals[i])
		}
	}
	if cl.n != 0 {
		t.Fatalf("%d bytes left in the read buffer after the last response", cl.n)
	}
}

// TestClientResponseLargerThanBuffer: a scan answer over connBuf grows the
// read buffer to exactly its frame, decodes intact, and the buffer shrinks
// back for the next response.
func TestClientResponseLargerThanBuffer(t *testing.T) {
	cl, _ := startServer(t, preemptdb.Config{})
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	const rows, size = 100, 1 << 10 // 100 KiB of values
	for i := 0; i < rows; i++ {
		if err := cl.Put("kv", []byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	keys, vals, err := cl.Scan("kv", nil, nil, 0)
	if err != nil || len(keys) != rows {
		t.Fatalf("Scan: %d keys, err %v", len(keys), err)
	}
	for i := range keys {
		if string(keys[i]) != fmt.Sprintf("k%03d", i) || !bytes.Equal(vals[i], bytes.Repeat([]byte{byte(i)}, size)) {
			t.Fatalf("row %d differs", i)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if len(cl.rbuf) != connBuf || cl.n != 0 {
		t.Fatalf("read buffer holds %d of %d bytes after a small response, want 0 of %d", cl.n, len(cl.rbuf), connBuf)
	}
}

// TestClientResultsSurviveNextCall: results never alias the reused read
// buffer, so a second call leaves the first call's values as they were.
func TestClientResultsSurviveNextCall(t *testing.T) {
	cl, _ := startServer(t, preemptdb.Config{})
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "first"}, {"b", "other"}} {
		if err := cl.Put("kv", []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Txn(preemptdb.Low, []ScriptOp{GetOp("kv", []byte("a")), ScanOp("kv", nil, nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Txn(preemptdb.Low, []ScriptOp{GetOp("kv", []byte("b")), ScanOp("kv", []byte("b"), nil, 0)}); err != nil {
		t.Fatal(err)
	}
	if string(res[0].Value) != "first" {
		t.Fatalf("first Get's value became %q", res[0].Value)
	}
	if len(res[1].Keys) != 2 || string(res[1].Keys[0]) != "a" || string(res[1].Values[0]) != "first" ||
		string(res[1].Keys[1]) != "b" || string(res[1].Values[1]) != "other" {
		t.Fatalf("first Scan's rows became %q / %q", res[1].Keys, res[1].Values)
	}
}

// TestClientConcurrentCallers: goroutines sharing one Client each get their
// own responses.
func TestClientConcurrentCallers(t *testing.T) {
	cl, _ := startServer(t, preemptdb.Config{CacheBytes: 1 << 20})
	if err := cl.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	const callers, ops = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []byte{byte(g)}
			for i := 0; i < ops; i++ {
				val := []byte(fmt.Sprintf("%d/%d", g, i))
				if err := cl.Put("kv", key, val); err != nil {
					t.Error(err)
					return
				}
				got, err := cl.Get("kv", key)
				if err != nil || !bytes.Equal(got, val) {
					t.Errorf("caller %d: Get = %q, %v, want %q", g, got, err, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkClientRoundTrip prices one Client round trip over loopback: a
// Ping, a Get the hot-key cache answers and a Put through the scheduler.
func BenchmarkClientRoundTrip(b *testing.B) {
	db, err := preemptdb.Open("", preemptdb.Config{Workers: 1, CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := New(db)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	db.CreateTable("kv")
	key, val := []byte("key"), []byte("value")
	if err := cl.Put("kv", key, val); err != nil {
		b.Fatal(err)
	}
	get := []ScriptOp{GetOp("kv", key)}
	put := []ScriptOp{PutOp("kv", key, val)}
	for _, bc := range []struct {
		name string
		call func() error
	}{
		{"ping", cl.Ping},
		{"get_hit", func() error { _, err := cl.Txn(preemptdb.Low, get); return err }},
		{"put", func() error { _, err := cl.Txn(preemptdb.Low, put); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.call(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
		})
	}
	if db.Stats().CacheHits == 0 {
		b.Fatal("get_hit never hit the hot-key cache")
	}
}
