package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"preemptdb"
)

// Server serves the PreemptDB wire protocol on a listener, executing each
// transaction script through the embedded DB's priority scheduler.
type Server struct {
	db  *preemptdb.DB
	lis net.Listener

	mu     sync.Mutex
	open   map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// IdleTimeout bounds how long a connection may sit without delivering a
	// complete request frame before the server drops it (default 2m;
	// negative disables). It also bounds how long a truncated frame can
	// wedge a connection.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (default 30s; negative
	// disables). A peer that stops reading cannot pin its connection's
	// goroutine or make responses pile up in server memory.
	WriteTimeout time.Duration
}

// New wraps db in a network server; call Serve with a listener. Adjust
// IdleTimeout/WriteTimeout before the first connection arrives.
func New(db *preemptdb.DB) *Server {
	return &Server{
		db:           db,
		open:         make(map[*conn]struct{}),
		Logf:         log.Printf,
		IdleTimeout:  2 * time.Minute,
		WriteTimeout: 30 * time.Second,
	}
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") in a background
// goroutine and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(lis)
	}()
	return lis.Addr(), nil
}

func (s *Server) serve(lis net.Listener) {
	for {
		nc, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{s: s, nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.open[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// ConnsOpen returns the number of connections the server holds open.
func (s *Server) ConnsOpen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.open {
		c.nc.Close() // its goroutine's Read or Write fails and it exits
	}
	s.mu.Unlock()
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.wg.Wait()
	return err
}

// dispatch parses and executes one request frame, appending the response
// payload to b. A returned error means the frame was malformed; nothing has
// been appended then. frame may alias a buffer that is reused once dispatch
// returns.
func (s *Server) dispatch(b, frame []byte) ([]byte, error) {
	r := &reader{frame}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case reqPing:
		return encodeResults(b, statusOK, "pong", nil), nil

	case reqCreateTable:
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		s.db.CreateTable(name)
		return encodeResults(b, statusOK, "", nil), nil

	case reqMetrics:
		if !r.empty() {
			return nil, fmt.Errorf("%w: trailing bytes after metrics request", ErrMalformed)
		}
		snap := s.db.Metrics()
		js, err := json.Marshal(&snap)
		if err != nil {
			return nil, fmt.Errorf("server: encoding metrics: %w", err)
		}
		return encodeResults(b, statusOK, string(js), nil), nil

	case reqSchedState:
		if !r.empty() {
			return nil, fmt.Errorf("%w: trailing bytes after sched-state request", ErrMalformed)
		}
		dbg := s.db.SchedState()
		js, err := json.Marshal(&dbg)
		if err != nil {
			return nil, fmt.Errorf("server: encoding sched state: %w", err)
		}
		return encodeResults(b, statusOK, string(js), nil), nil

	case reqStats:
		msg := s.db.Stats().String() + " conns_open=" + strconv.Itoa(s.ConnsOpen())
		return encodeResults(b, statusOK, msg, nil), nil

	case reqTxn:
		prio, ops, err := decodeScript(r)
		if err != nil {
			return nil, err
		}
		return s.runScript(b, prio, ops, 0, 0, 0), nil

	case reqTxnDeadline:
		micros, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		prio, ops, err := decodeScript(r)
		if err != nil {
			return nil, err
		}
		return s.runScript(b, prio, ops, time.Duration(micros)*time.Microsecond, 0, 0), nil

	case reqTxnTrace:
		traceID, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		micros, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		prio, ops, err := decodeScript(r)
		if err != nil {
			return nil, err
		}
		wait := time.Duration(micros) * time.Microsecond
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		return s.runScript(b, prio, ops, 0, traceID, wait), nil

	default:
		return nil, fmt.Errorf("%w: unknown request %d", ErrMalformed, kind)
	}
}

// runScript executes the ops atomically in one transaction at the given
// priority, with an optional relative timeout (0 = none) armed as the
// transaction's deadline. Per-op read misses are reported in-band
// (statusNotFound) without aborting; write errors abort the whole script.
// The response is appended to b.
//
// A traced script has traceWait > 0: it runs under traceID (0 = the database
// assigns one) and, on success, the response message carries the
// transaction's merged cross-shard Chrome trace export. traceWait bounds how
// long the exporter polls for the transaction's events to land in the trace
// rings; an empty message on a statusOK response means tracing is disabled or
// the ring wrapped past the transaction before export.
func (s *Server) runScript(b []byte, prio uint8, ops []ScriptOp, timeout time.Duration, traceID uint64, traceWait time.Duration) []byte {
	priority := preemptdb.Low
	if prio > 0 {
		priority = preemptdb.High
	}
	results := make([]OpResult, len(ops))
	pending, err := s.db.SubmitOpts(preemptdb.TxnOptions{Priority: priority, Timeout: timeout, TraceID: traceID},
		scriptFn(ops, results))
	if err == nil {
		err = pending.Wait()
	}
	if err != nil || traceWait <= 0 {
		return scriptResults(b, err, results)
	}
	trace, terr := s.db.TraceTxn(pending.TraceID(), traceWait)
	if terr != nil {
		trace = nil
	}
	return encodeResults(b, statusOK, string(trace), results)
}

// scriptFn builds the transaction body executing ops into results.
func scriptFn(ops []ScriptOp, results []OpResult) func(tx *preemptdb.Txn) error {
	return func(tx *preemptdb.Txn) error {
		for i := range ops {
			op := &ops[i]
			res := &results[i]
			*res = OpResult{Status: statusOK}
			switch op.Op {
			case opGet:
				v, err := tx.Get(op.Table, op.Key)
				if preemptdb.IsNotFound(err) {
					res.Status = statusNotFound
				} else if err != nil {
					return err
				} else {
					res.Value = append([]byte(nil), v...)
				}
			case opInsert:
				if err := tx.Insert(op.Table, op.Key, op.Value); err != nil {
					return err
				}
			case opUpdate:
				if err := tx.Update(op.Table, op.Key, op.Value); err != nil {
					return err
				}
			case opPut:
				if err := tx.Put(op.Table, op.Key, op.Value); err != nil {
					return err
				}
			case opDelete:
				if err := tx.Delete(op.Table, op.Key); err != nil {
					return err
				}
			case opScan, opScanDesc:
				from, to := op.Key, op.Value
				if len(from) == 0 {
					from = nil
				}
				if len(to) == 0 {
					to = nil
				}
				emit := func(k, v []byte) bool {
					res.Keys = append(res.Keys, append([]byte(nil), k...))
					res.Values = append(res.Values, append([]byte(nil), v...))
					return op.Limit == 0 || uint32(len(res.Keys)) < op.Limit
				}
				var err error
				switch {
				case op.Op == opScan && op.Index == "":
					err = tx.Scan(op.Table, from, to, emit)
				case op.Op == opScan:
					err = tx.ScanIndex(op.Table, op.Index, from, to, emit)
				case op.Index == "":
					err = tx.ScanDesc(op.Table, from, to, emit)
				default:
					err = tx.ScanIndexDesc(op.Table, op.Index, from, to, emit)
				}
				if err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown op %d", op.Op)
			}
		}
		return nil
	}
}

// scriptResults maps a script outcome to its typed response frame.
func scriptResults(b []byte, err error, results []OpResult) []byte {
	switch {
	case err == nil:
		return encodeResults(b, statusOK, "", results)
	case preemptdb.IsDuplicateKey(err):
		return encodeResults(b, statusDuplicate, err.Error(), nil)
	case preemptdb.IsNotFound(err):
		return encodeResults(b, statusNotFound, err.Error(), nil)
	case preemptdb.IsDeadlineExceeded(err):
		return encodeResults(b, statusDeadline, err.Error(), nil)
	case preemptdb.IsCanceled(err):
		return encodeResults(b, statusCanceled, err.Error(), nil)
	case errors.Is(err, preemptdb.ErrQueueFull):
		return encodeResults(b, statusQueueFull, err.Error(), nil)
	case preemptdb.IsWALFailed(err):
		return encodeResults(b, statusReadOnly, err.Error(), nil)
	case preemptdb.IsConflict(err):
		return encodeResults(b, statusConflict, err.Error(), nil)
	default:
		return encodeResults(b, statusError, err.Error(), nil)
	}
}

// Errors surfaced by the client for non-OK response statuses.
var (
	ErrNotFound  = errors.New("server: not found")
	ErrDuplicate = errors.New("server: duplicate key")
	ErrConflict  = errors.New("server: transaction conflict")
	// ErrDeadlineExceeded: the transaction missed its wire-specified
	// deadline (shed at admission or while queued, or canceled mid-flight on
	// the server).
	ErrDeadlineExceeded = errors.New("server: transaction deadline exceeded")
	// ErrCanceled: the transaction was canceled on the server.
	ErrCanceled = errors.New("server: transaction canceled")
	// ErrQueueFull: the server rejected the request up front (scheduler
	// queues full).
	ErrQueueFull = errors.New("server: request rejected, queues full")
	// ErrReadOnly: the server's write-ahead log latched a permanent failure;
	// reads still succeed but every write is refused until the operator
	// restarts the server on a recovered data directory.
	ErrReadOnly = errors.New("server: database is read-only after a log failure")
)
