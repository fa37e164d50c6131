// Package server provides a TCP network layer for PreemptDB: a wire
// protocol, a Server that executes client transactions through the
// priority scheduler, and a Client.
//
// The protocol is deliberately simple — length-prefixed binary frames, one
// request/response pair per transaction. A transaction is shipped as a
// script of operations executed atomically on the server inside one
// engine transaction, tagged with a priority; a high-priority script
// preempts in-flight low-priority work exactly like an embedded caller.
// (The paper's evaluation excludes networking to isolate scheduling; this
// layer exists for the library's sake and is benchmarked separately.)
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op codes for transaction script operations.
const (
	opGet uint8 = iota + 1
	opInsert
	opUpdate
	opPut
	opDelete
	opScan
	opScanDesc
)

// Request types.
const (
	reqTxn uint8 = iota + 1
	reqCreateTable
	reqCreateIndex // reserved; extractors cannot cross the wire
	reqStats
	reqPing
	// reqTxnDeadline is reqTxn preceded by a uvarint relative timeout in
	// microseconds (relative so the two machines' clocks never have to
	// agree); the server arms it as an absolute deadline on receipt.
	reqTxnDeadline
	// reqMetrics asks for the structured latency snapshot (DB.Metrics); the
	// response carries the JSON document in the message string. The request
	// body is empty — trailing bytes are malformed.
	reqMetrics
	// reqSchedState asks for the live scheduler introspection snapshot
	// (DB.SchedState): per-core queue depths and seqlock-sampled slot tables
	// — slot state, class, trace tag, starvation level. The response carries
	// the JSON document in the message string; the request body is empty.
	reqSchedState
	// reqTxnTrace is reqTxn preceded by a uvarint trace id (0 = let the
	// server assign one) and a uvarint trace-collection timeout in
	// microseconds. The server runs the script under that trace id and ships
	// the transaction's merged cross-shard Chrome trace (DB.TraceTxn) back in
	// the response message — the wire form of end-to-end trace propagation.
	reqTxnTrace
)

// Response status codes.
const (
	statusOK uint8 = iota
	statusNotFound
	statusDuplicate
	statusConflict
	statusError
	// statusDeadline: the transaction missed its deadline (shed at
	// admission or while queued, or canceled mid-flight).
	statusDeadline
	// statusCanceled: the transaction was canceled server-side.
	statusCanceled
	// statusQueueFull: rejected up front — scheduler queues full.
	statusQueueFull
	// statusReadOnly: the database's write-ahead log latched a permanent
	// failure and the server only accepts reads until restarted on a
	// recovered directory.
	statusReadOnly
)

// maxFrame bounds a single frame (16 MiB) to keep a misbehaving peer from
// ballooning server memory.
const maxFrame = 16 << 20

// Wire errors.
var (
	ErrFrameTooLarge = errors.New("server: frame exceeds limit")
	ErrMalformed     = errors.New("server: malformed frame")
)

// Framing. A frame is a 4-byte big-endian payload length followed by the
// payload. Both ends build frames with appendFrame, so a frame leaves in one
// Write, and cut them out of a reused read buffer with cutFrame.

// connBuf is the size of a read buffer on either end of a connection (it
// grows past this only to hold one larger frame, and shrinks back afterwards)
// and the server's response-buffer fill at which responses go out before the
// read's last frame is answered.
const connBuf = 64 << 10

// appendFrame appends one length-prefixed frame whose payload is whatever
// encode appends.
func appendFrame(b []byte, encode func([]byte) []byte) []byte {
	at := len(b)
	b = encode(append(b, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// cutFrame returns the payload of the frame at the front of data, aliasing
// data; ok is false while data holds only part of it. A length prefix over
// maxFrame is an error: the byte stream can no longer be trusted.
func cutFrame(data []byte) (payload []byte, ok bool, err error) {
	if len(data) < 4 {
		return nil, false, nil
	}
	n := binary.BigEndian.Uint32(data)
	if n > maxFrame {
		return nil, false, ErrFrameTooLarge
	}
	if uint64(len(data)) < 4+uint64(n) {
		return nil, false, nil
	}
	return data[4 : 4+n], true, nil
}

// carry prepares a read buffer for its next read once the frames in
// buf[:consumed] are done with: it moves the n-consumed bytes after them to
// the front and returns the buffer with the count it now holds. A pending
// frame that does not fit grows the buffer to exactly that frame (cutFrame has
// already held its length to maxFrame); an empty buffer of any size but
// connBuf (none yet, or one a large frame grew) becomes connBuf again.
func carry(buf []byte, consumed, n int) ([]byte, int) {
	n = copy(buf, buf[consumed:n])
	if n >= 4 {
		if need := 4 + int(binary.BigEndian.Uint32(buf)); need > len(buf) {
			grown := make([]byte, need)
			copy(grown, buf[:n])
			return grown, n
		}
	} else if n == 0 && len(buf) != connBuf {
		return make([]byte, connBuf), 0
	}
	return buf, n
}

// appendBytes appends a uvarint-length-prefixed blob.
func appendBytes(b, blob []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// reader walks a payload buffer.
type reader struct{ b []byte }

func (r *reader) u8() (uint8, error) {
	if len(r.b) < 1 {
		return 0, ErrMalformed
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrMalformed
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)) < n {
		return nil, ErrMalformed
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) str() (string, error) {
	v, err := r.bytes()
	return string(v), err
}

func (r *reader) empty() bool { return len(r.b) == 0 }

// ScriptOp is one operation in a transaction script.
type ScriptOp struct {
	Op         uint8
	Table      string
	Index      string // scans over a secondary index (optional)
	Key, Value []byte // Key/Value double as From/To for scans
	Limit      uint32 // scans: max rows (0 = unlimited)
}

// OpResult is the outcome of one script operation.
type OpResult struct {
	Status uint8
	Value  []byte   // point reads
	Keys   [][]byte // scans
	Values [][]byte // scans
}

func appendScriptBody(b []byte, priority uint8, ops []ScriptOp) []byte {
	b = append(b, priority)
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, op.Op)
		b = appendString(b, op.Table)
		b = appendString(b, op.Index)
		b = appendBytes(b, op.Key)
		b = appendBytes(b, op.Value)
		b = binary.AppendUvarint(b, uint64(op.Limit))
	}
	return b
}

func encodeScript(b []byte, priority uint8, ops []ScriptOp) []byte {
	return appendScriptBody(append(b, reqTxn), priority, ops)
}

// encodeScriptDeadline frames a reqTxnDeadline request: the relative timeout
// (microseconds) precedes the ordinary script body.
func encodeScriptDeadline(b []byte, priority uint8, timeoutMicros uint64, ops []ScriptOp) []byte {
	b = append(b, reqTxnDeadline)
	b = binary.AppendUvarint(b, timeoutMicros)
	return appendScriptBody(b, priority, ops)
}

// encodeScriptTrace frames a reqTxnTrace request: trace id and
// trace-collection timeout (microseconds) precede the ordinary script body.
func encodeScriptTrace(b []byte, priority uint8, traceID, traceTimeoutMicros uint64, ops []ScriptOp) []byte {
	b = append(b, reqTxnTrace)
	b = binary.AppendUvarint(b, traceID)
	b = binary.AppendUvarint(b, traceTimeoutMicros)
	return appendScriptBody(b, priority, ops)
}

// decodeScript decodes a script body. It first takes its one private copy
// of the body — the payload it is handed aliases a connection's read buffer,
// and the engine keeps what a script writes past the next read
// (engine.Txn.Put retains the value slice, the index a new key) — and every
// key and value of the decoded ops then aliases that copy.
func decodeScript(r *reader) (priority uint8, ops []ScriptOp, err error) {
	r.b = append([]byte(nil), r.b...)
	if priority, err = r.u8(); err != nil {
		return 0, nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > 1<<16 {
		return 0, nil, fmt.Errorf("%w: script of %d ops", ErrMalformed, n)
	}
	ops = make([]ScriptOp, n)
	for i := range ops {
		op := &ops[i]
		if op.Op, err = r.u8(); err != nil {
			return 0, nil, err
		}
		if op.Table, err = r.str(); err != nil {
			return 0, nil, err
		}
		if op.Index, err = r.str(); err != nil {
			return 0, nil, err
		}
		if op.Key, err = r.bytes(); err != nil {
			return 0, nil, err
		}
		if op.Value, err = r.bytes(); err != nil {
			return 0, nil, err
		}
		lim, err := r.uvarint()
		if err != nil {
			return 0, nil, err
		}
		op.Limit = uint32(lim)
	}
	return priority, ops, nil
}

func encodeResults(b []byte, status uint8, msg string, results []OpResult) []byte {
	b = append(b, status)
	b = appendString(b, msg)
	b = binary.AppendUvarint(b, uint64(len(results)))
	for _, res := range results {
		b = append(b, res.Status)
		b = appendBytes(b, res.Value)
		b = binary.AppendUvarint(b, uint64(len(res.Keys)))
		for i := range res.Keys {
			b = appendBytes(b, res.Keys[i])
			b = appendBytes(b, res.Values[i])
		}
	}
	return b
}

func decodeResults(payload []byte) (status uint8, msg string, results []OpResult, err error) {
	r := &reader{payload}
	if status, err = r.u8(); err != nil {
		return 0, "", nil, err
	}
	if msg, err = r.str(); err != nil {
		return 0, "", nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, "", nil, err
	}
	if n > 1<<16 {
		return 0, "", nil, ErrMalformed
	}
	results = make([]OpResult, n)
	for i := range results {
		res := &results[i]
		if res.Status, err = r.u8(); err != nil {
			return 0, "", nil, err
		}
		var v []byte
		if v, err = r.bytes(); err != nil {
			return 0, "", nil, err
		}
		res.Value = append([]byte(nil), v...)
		rows, err := r.uvarint()
		if err != nil {
			return 0, "", nil, err
		}
		if rows > 1<<24 {
			return 0, "", nil, ErrMalformed
		}
		for j := uint64(0); j < rows; j++ {
			k, err := r.bytes()
			if err != nil {
				return 0, "", nil, err
			}
			val, err := r.bytes()
			if err != nil {
				return 0, "", nil, err
			}
			res.Keys = append(res.Keys, append([]byte(nil), k...))
			res.Values = append(res.Values, append([]byte(nil), val...))
		}
	}
	if !r.empty() {
		return 0, "", nil, ErrMalformed
	}
	return status, msg, results, nil
}
