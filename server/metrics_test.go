package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"preemptdb"
	"preemptdb/internal/metrics"
)

// metricsTraffic drives a few transactions at both priorities so the
// server's registry has phase samples in each class.
func metricsTraffic(t *testing.T, c *Client) {
	t.Helper()
	if err := c.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := preemptdb.Low
		if i%2 == 0 {
			p = preemptdb.High
		}
		key := []byte(fmt.Sprintf("k%d", i))
		if _, err := c.Txn(p, []ScriptOp{{Op: opPut, Table: "kv", Key: key, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetricsOverWire: the Metrics frame round-trips the structured snapshot
// with per-class end-to-end samples intact.
func TestMetricsOverWire(t *testing.T) {
	c, _ := startServer(t, preemptdb.Config{})
	metricsTraffic(t, c)
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Hi.Total.Count == 0 || snap.Lo.Total.Count == 0 {
		t.Fatalf("snapshot missing end-to-end samples: hi=%d lo=%d",
			snap.Hi.Total.Count, snap.Lo.Total.Count)
	}
	if snap.Hi.Total.P99 < snap.Hi.Total.P50 || snap.Hi.Total.P50 <= 0 {
		t.Fatalf("hi total percentiles inconsistent: %+v", snap.Hi.Total)
	}
}

// TestPipelinedMetricsFrame: a Metrics frame pipelined in the middle of a
// batch of transaction frames gets its response in order, carrying a JSON
// document that decodes into the snapshot schema.
func TestPipelinedMetricsFrame(t *testing.T) {
	c, srv := startServer(t, preemptdb.Config{})
	metricsTraffic(t, c)

	conn, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const K = 8
	var batch bytes.Buffer
	for i := 0; i < K; i++ {
		key := []byte(fmt.Sprintf("p%d", i))
		frame := encodeScript(nil, 0, []ScriptOp{{Op: opPut, Table: "kv", Key: key, Value: []byte("v")}})
		if i == K/2 {
			frame = []byte{reqMetrics}
		}
		if err := sendFrame(&batch, frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < K; i++ {
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		status, msg, _, err := decodeResults(resp)
		if err != nil || status != statusOK {
			t.Fatalf("response %d: status=%d msg=%q err=%v", i, status, msg, err)
		}
		if i == K/2 {
			var snap metrics.RegistrySnapshot
			if err := json.Unmarshal([]byte(msg), &snap); err != nil {
				t.Fatalf("metrics response not JSON: %v", err)
			}
			if snap.Hi.Total.Count == 0 {
				t.Fatalf("pipelined metrics snapshot empty: %s", msg)
			}
		}
	}
}

// TestMalformedMetricsFrame: trailing bytes after the request kind yield a
// typed error frame — frame sync is intact, so the connection keeps serving.
func TestMalformedMetricsFrame(t *testing.T) {
	_, srv := startServer(t, preemptdb.Config{})

	conn, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := sendFrame(conn, []byte{reqMetrics, 0xAB}); err != nil {
		t.Fatal(err)
	}
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	status, msg, _, err := decodeResults(resp)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusError || !strings.Contains(msg, ErrMalformed.Error()) {
		t.Fatalf("want typed malformed error, got status=%d msg=%q", status, msg)
	}

	// Same connection, valid frame: still served.
	if err := sendFrame(conn, []byte{reqMetrics}); err != nil {
		t.Fatal(err)
	}
	resp, err = recvFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	status, msg, _, err = decodeResults(resp)
	if err != nil || status != statusOK {
		t.Fatalf("connection did not survive malformed frame: status=%d msg=%q err=%v", status, msg, err)
	}
	var snap metrics.RegistrySnapshot
	if err := json.Unmarshal([]byte(msg), &snap); err != nil {
		t.Fatalf("metrics after malformed frame not JSON: %v", err)
	}
}

// TestStatsTableOverWire: the stats frame carries every field of the
// database's Stats table under its exposition name, plus the server's open
// connections, and the connection count drops back to zero once the client
// hangs up.
func TestStatsTableOverWire(t *testing.T) {
	c, srv := startServer(t, preemptdb.Config{})
	metricsTraffic(t, c)
	msg, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{}
	for _, kv := range strings.Fields(msg) {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("stats frame item %q is not name=value: %q", kv, msg)
		}
		pairs[name] = val
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(preemptdb.Stats{})) {
		if _, ok := pairs[f.Tag.Get("stat")]; !ok {
			t.Errorf("stats frame has no %s= for Stats.%s: %q", f.Tag.Get("stat"), f.Name, msg)
		}
	}
	if pairs["commits_total"] != "8" || pairs["wal_failed"] != "false" {
		t.Errorf("stats frame misreports the traffic: %q", msg)
	}
	if pairs["conns_open"] != "1" || srv.ConnsOpen() != 1 {
		t.Errorf("one client open: frame says conns_open=%s, ConnsOpen() = %d", pairs["conns_open"], srv.ConnsOpen())
	}
	c.Close()
	waitFor(t, "the server to drop the closed connection", func() bool { return srv.ConnsOpen() == 0 })
}
