package server

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"preemptdb"
)

// startRawServer starts a server and returns its address plus the DB, for
// tests that speak the wire protocol byte-by-byte. configure (optional) runs
// before the listener opens.
func startRawServer(t *testing.T, configure func(*Server)) (string, *preemptdb.DB) {
	t.Helper()
	db, err := preemptdb.Open("", preemptdb.Config{Workers: 1})
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
	return addr.String(), db
}

func mustDialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTripRaw writes one framed payload and decodes the response frame.
func roundTripRaw(t *testing.T, conn net.Conn, payload []byte) (uint8, string) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := sendFrame(conn, payload); err != nil {
		t.Fatalf("sendFrame: %v", err)
	}
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatalf("recvFrame: %v", err)
	}
	status, msg, _, err := decodeResults(resp)
	if err != nil {
		t.Fatalf("decodeResults: %v", err)
	}
	return status, msg
}

// TestMalformedPayloadsGetTypedErrorFrame feeds well-framed but malformed
// payloads and requires (a) a typed statusError response for each, and (b)
// that the connection stays usable — verified by a successful ping between
// cases on the same connection.
func TestMalformedPayloadsGetTypedErrorFrame(t *testing.T) {
	addr, _ := startRawServer(t, nil)
	shared := mustDialRaw(t, addr)

	cases := []struct {
		name    string
		payload []byte
		want    uint8
	}{
		{"empty payload", nil, statusError},
		{"unknown request kind", []byte{99}, statusError},
		{"unknown request kind with a body", []byte{0xEE, 1}, statusError},
		{"txn with no body", []byte{reqTxn}, statusError},
		{"txn priority only", []byte{reqTxn, 1}, statusError},
		{"txn truncated mid-op", append([]byte{reqTxn, 0}, binary.AppendUvarint(nil, 3)...), statusError},
		{"txn oversized op count", append([]byte{reqTxn, 0}, binary.AppendUvarint(nil, 1<<20)...), statusError},
		{"create table with no name", []byte{reqCreateTable}, statusError},
		{"create index unsupported", []byte{reqCreateIndex, 1, 2, 3}, statusError},
		{"deadline txn with no timeout", []byte{reqTxnDeadline}, statusError},
		{"deadline txn with unterminated timeout", []byte{reqTxnDeadline, 0x80}, statusError},
		{"deadline txn truncated after timeout", binary.AppendUvarint([]byte{reqTxnDeadline}, 500), statusError},
		{"ping", []byte{reqPing}, statusOK},
	}
	for _, tc := range cases {
		// Each payload goes once mid-connection and once as the first frame
		// of a fresh connection.
		for _, conn := range []net.Conn{shared, mustDialRaw(t, addr)} {
			status, msg := roundTripRaw(t, conn, tc.payload)
			if status != tc.want {
				t.Errorf("%s: status = %d (%q), want %d", tc.name, status, msg, tc.want)
			}
			if msg == "" {
				t.Errorf("%s: response carries no message", tc.name)
			}
			// The connection must survive the malformed request.
			if status, msg := roundTripRaw(t, conn, []byte{reqPing}); status != statusOK || msg != "pong" {
				t.Fatalf("%s: connection unusable after the payload: %d %q", tc.name, status, msg)
			}
		}
	}
}

// TestRandomPayloadsNeverWedgeConnection sends pseudo-random well-framed
// payloads; every one must produce exactly one response frame (valid or
// typed error) with the connection intact throughout.
func TestRandomPayloadsNeverWedgeConnection(t *testing.T) {
	addr, _ := startRawServer(t, nil)
	conn := mustDialRaw(t, addr)

	r := rand.New(rand.NewPCG(0xfeed, 0xbeef))
	for i := 0; i < 200; i++ {
		n := r.IntN(64)
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(r.Uint32())
		}
		// Every frame gets an answer; status content is payload-dependent.
		roundTripRaw(t, conn, payload)
	}
	if status, msg := roundTripRaw(t, conn, []byte{reqPing}); status != statusOK || msg != "pong" {
		t.Fatalf("connection unusable after random payloads: %d %q", status, msg)
	}
}

// TestTruncatedFrameClosedByIdleTimeout: a frame header promising more bytes
// than ever arrive must not wedge the handler forever — the idle timeout
// closes the connection.
func TestTruncatedFrameClosedByIdleTimeout(t *testing.T) {
	addr, _ := startRawServer(t, func(s *Server) { s.IdleTimeout = 100 * time.Millisecond })
	conn := mustDialRaw(t, addr)

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil { // 90 bytes never come
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to drop the truncated connection")
	} else if errors.Is(err, io.EOF) {
		// closed by the server: the expected outcome
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server kept the truncated connection open past its idle timeout")
	}
}

// TestTxnTimeoutDeadlineStatus: a wire transaction whose deadline cannot be
// met fails with the typed deadline error, and the connection remains
// usable for an identical transaction with a generous deadline.
func TestTxnTimeoutDeadlineStatus(t *testing.T) {
	addr, db := startRawServer(t, nil)
	if err := db.Run(func(tx *preemptdb.Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	db.CreateTable("t")
	if err := db.Run(func(tx *preemptdb.Txn) error {
		val := make([]byte, 32)
		for i := 0; i < 20000; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], uint64(i))
			if err := tx.Insert("t", k[:], val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 50µs cannot cover a 20k-row scan: the transaction is shed in the
	// queue or unwound mid-scan — either way the typed deadline error.
	_, err = c.TxnTimeout(preemptdb.Low, 50*time.Microsecond, []ScriptOp{ScanOp("t", nil, nil, 0)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("TxnTimeout err = %v", err)
	}

	// Same script with a generous deadline succeeds on the same connection.
	res, err := c.TxnTimeout(preemptdb.Low, 30*time.Second, []ScriptOp{ScanOp("t", nil, nil, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Keys) != 20000 {
		t.Fatalf("scan saw %d rows", len(res[0].Keys))
	}
}
