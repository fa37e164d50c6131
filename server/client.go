package server

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"preemptdb"
	"preemptdb/internal/metrics"
)

// Client is a connection to a PreemptDB server. Safe for concurrent use;
// requests on one connection are serialized (open several clients for
// parallelism).
//
// A round trip is one Write and, for a response that fits the read buffer,
// one Read. Both buffers belong to the connection and are reused under mu:
// a request is encoded straight into wbuf behind its length prefix, and a
// response is cut out of rbuf, decoded (which copies every value out) and
// then overwritten by the next one.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	wbuf []byte // the request being sent
	rbuf []byte // rbuf[:n] holds the bytes read but not yet decoded
	n    int
}

// Dial connects to a server address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends the request whose payload encode appends and reads the
// response.
func (c *Client) roundTrip(encode func([]byte) []byte) (uint8, string, []OpResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendFrame(c.wbuf[:0], encode)
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > connBuf {
		c.wbuf = nil // release a large request's buffer
	}
	if err != nil {
		return 0, "", nil, err
	}
	var rerr error
	for {
		frame, ok, err := cutFrame(c.rbuf[:c.n])
		if err != nil {
			return 0, "", nil, err
		}
		if ok {
			status, msg, results, err := decodeResults(frame)
			c.rbuf, c.n = carry(c.rbuf, 4+len(frame), c.n)
			return status, msg, results, err
		}
		if rerr != nil {
			return 0, "", nil, rerr
		}
		c.rbuf, c.n = carry(c.rbuf, 0, c.n)
		var m int
		m, rerr = c.conn.Read(c.rbuf[c.n:])
		c.n += m
	}
}

// wirePriority is p's priority byte on the wire.
func wirePriority(p preemptdb.Priority) uint8 {
	if p == preemptdb.High {
		return 1
	}
	return 0
}

// Ping checks liveness.
func (c *Client) Ping() error {
	status, msg, _, err := c.roundTrip(func(b []byte) []byte { return append(b, reqPing) })
	if err != nil {
		return err
	}
	if status != statusOK || msg != "pong" {
		return fmt.Errorf("server: bad ping response %d %q", status, msg)
	}
	return nil
}

// CreateTable creates a table on the server (idempotent).
func (c *Client) CreateTable(name string) error {
	status, msg, _, err := c.roundTrip(func(b []byte) []byte {
		return appendString(append(b, reqCreateTable), name)
	})
	if err != nil {
		return err
	}
	return statusErr(status, msg)
}

// Metrics fetches the server's structured latency snapshot: per-class
// per-phase Summary percentiles plus uintr delivery latency, decoded from
// the JSON document the server ships in the response message.
func (c *Client) Metrics() (metrics.RegistrySnapshot, error) {
	var snap metrics.RegistrySnapshot
	status, msg, _, err := c.roundTrip(func(b []byte) []byte { return append(b, reqMetrics) })
	if err != nil {
		return snap, err
	}
	if err := statusErr(status, msg); err != nil {
		return snap, err
	}
	if err := json.Unmarshal([]byte(msg), &snap); err != nil {
		return snap, fmt.Errorf("server: decoding metrics: %w", err)
	}
	return snap, nil
}

// SchedState fetches the server's live scheduler introspection snapshot as a
// JSON document (the wire form of DB.SchedState / the /debug/sched endpoint):
// per-core queue depths and seqlock-sampled slot tables — slot state, class,
// trace tag, starvation level. Returned raw so callers without the
// preemptdb types (dashboards, scripts) can consume it directly.
func (c *Client) SchedState() ([]byte, error) {
	status, msg, _, err := c.roundTrip(func(b []byte) []byte { return append(b, reqSchedState) })
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, msg); err != nil {
		return nil, err
	}
	return []byte(msg), nil
}

// TxnTraced is Txn with end-to-end trace propagation: the script runs under
// traceID (0 lets the server assign one) and the server ships back the
// transaction's merged cross-shard Chrome trace-event document alongside the
// results. traceWait bounds how long the server waits for the transaction's
// events to settle into the trace rings (0 picks a 50ms default). A nil
// trace with a nil error means the server has tracing disabled or the rings
// wrapped before export.
func (c *Client) TxnTraced(p preemptdb.Priority, traceID uint64, traceWait time.Duration, ops []ScriptOp) ([]OpResult, []byte, error) {
	prio := wirePriority(p)
	micros := uint64(traceWait / time.Microsecond)
	status, msg, results, err := c.roundTrip(func(b []byte) []byte {
		return encodeScriptTrace(b, prio, traceID, micros, ops)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := statusErr(status, msg); err != nil {
		return nil, nil, err
	}
	var trace []byte
	if msg != "" {
		trace = []byte(msg)
	}
	return results, trace, nil
}

// Stats returns the server's counters as one line of space-separated
// name=value pairs: every field of the database's Stats table under its
// exposition name, then conns_open, the connections the server holds open.
func (c *Client) Stats() (string, error) {
	status, msg, _, err := c.roundTrip(func(b []byte) []byte { return append(b, reqStats) })
	if err != nil {
		return "", err
	}
	return msg, statusErr(status, msg)
}

// Txn executes a script of operations atomically at the given priority.
func (c *Client) Txn(p preemptdb.Priority, ops []ScriptOp) ([]OpResult, error) {
	prio := wirePriority(p)
	status, msg, results, err := c.roundTrip(func(b []byte) []byte { return encodeScript(b, prio, ops) })
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, msg); err != nil {
		return nil, err
	}
	return results, nil
}

// TxnTimeout is Txn with a server-side deadline: the relative timeout ships
// on the wire (microsecond resolution, so the machines' clocks never need to
// agree) and the server arms it as the transaction's deadline on receipt. A
// transaction that misses it — still queued or mid-flight — fails with
// ErrDeadlineExceeded instead of occupying a core.
func (c *Client) TxnTimeout(p preemptdb.Priority, timeout time.Duration, ops []ScriptOp) ([]OpResult, error) {
	prio := wirePriority(p)
	micros := uint64(timeout / time.Microsecond)
	if timeout > 0 && micros == 0 {
		micros = 1 // sub-microsecond timeouts still arm a deadline
	}
	status, msg, results, err := c.roundTrip(func(b []byte) []byte {
		return encodeScriptDeadline(b, prio, micros, ops)
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, msg); err != nil {
		return nil, err
	}
	return results, nil
}

func statusErr(status uint8, msg string) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case statusDuplicate:
		return fmt.Errorf("%w: %s", ErrDuplicate, msg)
	case statusConflict:
		return fmt.Errorf("%w: %s", ErrConflict, msg)
	case statusDeadline:
		return fmt.Errorf("%w: %s", ErrDeadlineExceeded, msg)
	case statusCanceled:
		return fmt.Errorf("%w: %s", ErrCanceled, msg)
	case statusQueueFull:
		return fmt.Errorf("%w: %s", ErrQueueFull, msg)
	case statusReadOnly:
		return fmt.Errorf("%w: %s", ErrReadOnly, msg)
	default:
		return fmt.Errorf("server: %s", msg)
	}
}

// Convenience single-op wrappers.

// Get fetches one row (priority Low).
func (c *Client) Get(table string, key []byte) ([]byte, error) {
	res, err := c.Txn(preemptdb.Low, []ScriptOp{{Op: opGet, Table: table, Key: key}})
	if err != nil {
		return nil, err
	}
	if res[0].Status == statusNotFound {
		return nil, ErrNotFound
	}
	return res[0].Value, nil
}

// Put upserts one row (priority Low).
func (c *Client) Put(table string, key, value []byte) error {
	_, err := c.Txn(preemptdb.Low, []ScriptOp{{Op: opPut, Table: table, Key: key, Value: value}})
	return err
}

// Insert creates one row (priority Low); fails on duplicates.
func (c *Client) Insert(table string, key, value []byte) error {
	_, err := c.Txn(preemptdb.Low, []ScriptOp{{Op: opInsert, Table: table, Key: key, Value: value}})
	return err
}

// Delete removes one row (priority Low).
func (c *Client) Delete(table string, key []byte) error {
	_, err := c.Txn(preemptdb.Low, []ScriptOp{{Op: opDelete, Table: table, Key: key}})
	return err
}

// Scan returns up to limit rows with from <= key < to in ascending order.
func (c *Client) Scan(table string, from, to []byte, limit uint32) (keys, values [][]byte, err error) {
	res, err := c.Txn(preemptdb.Low, []ScriptOp{{Op: opScan, Table: table, Key: from, Value: to, Limit: limit}})
	if err != nil {
		return nil, nil, err
	}
	return res[0].Keys, res[0].Values, nil
}

// GetOp builds a read operation for use in Txn scripts.
func GetOp(table string, key []byte) ScriptOp { return ScriptOp{Op: opGet, Table: table, Key: key} }

// InsertOp builds an insert operation.
func InsertOp(table string, key, value []byte) ScriptOp {
	return ScriptOp{Op: opInsert, Table: table, Key: key, Value: value}
}

// UpdateOp builds an update operation.
func UpdateOp(table string, key, value []byte) ScriptOp {
	return ScriptOp{Op: opUpdate, Table: table, Key: key, Value: value}
}

// PutOp builds an upsert operation.
func PutOp(table string, key, value []byte) ScriptOp {
	return ScriptOp{Op: opPut, Table: table, Key: key, Value: value}
}

// DeleteOp builds a delete operation.
func DeleteOp(table string, key []byte) ScriptOp {
	return ScriptOp{Op: opDelete, Table: table, Key: key}
}

// ScanOp builds an ascending scan operation ([from, to), limit rows; 0 =
// unlimited). Set Index on the result for secondary-index scans.
func ScanOp(table string, from, to []byte, limit uint32) ScriptOp {
	return ScriptOp{Op: opScan, Table: table, Key: from, Value: to, Limit: limit}
}

// ScanDescOp builds a descending scan operation.
func ScanDescOp(table string, from, to []byte, limit uint32) ScriptOp {
	return ScriptOp{Op: opScanDesc, Table: table, Key: from, Value: to, Limit: limit}
}

// NotFound reports whether an op result carries the not-found status, for
// use with results of Txn scripts containing GetOps.
func NotFound(r OpResult) bool { return r.Status == statusNotFound }
