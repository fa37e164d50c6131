// Package wal implements PreemptDB's redo-only write-ahead log.
//
// Each transaction context accumulates redo records in a private Buffer kept
// in context-local storage (CLS). This is exactly the state the paper's §4.3
// exists to protect: ERMIA keeps its log buffer in thread-local storage, and
// once a worker thread hosts two transaction contexts, a preempted
// transaction's log buffer must not be shared with — or flushed by — the
// high-priority transaction running on the same thread. Giving every context
// its own Buffer through CLS makes interleaved commits safe without engine
// changes.
//
// At commit, the buffer is framed (txn id, commit timestamp, record count,
// CRC) and handed to the central Manager's group-commit pipeline. Committers
// stage their framed buffer into the open batch under a short staging latch;
// the first committer into an empty batch is elected leader, and once the
// previous batch's I/O completes the leader closes its batch and writes every
// staged frame with a single Write+Flush+Sync, assigns LSNs, and wakes the
// followers. Batching therefore arises from I/O overlap alone — while one
// leader syncs, the next batch accumulates; a leader never waits to gather
// joiners.
//
// Latch discipline (paper §4.4): the staging latch is held for an append and
// the write latch only by a leader across its batch I/O; the engine runs both
// inside non-preemptible regions. Followers hold *no* latch while parked
// waiting for their leader, so a preempted low-priority committer parked as a
// follower can never block a same-core high-priority committer on the log.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// RecordType tags a redo record.
type RecordType uint8

// Redo record types. Deletes are modelled as updates writing a tombstone at
// the MVCC layer, but the log distinguishes them so recovery can drop index
// entries.
const (
	RecInsert RecordType = iota + 1
	RecUpdate
	RecDelete
)

func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecUpdate:
		return "update"
	case RecDelete:
		return "delete"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one decoded redo record.
type Record struct {
	Type  RecordType
	Table uint32
	Key   []byte
	Value []byte
}

// txnMagic frames each committed transaction in the log stream.
const txnMagic uint32 = 0x7072444c // "prDL"

// prepMagic frames a 2PC prepare record: the redo of a cross-shard
// participant that has passed validation but whose commit decision belongs to
// the distributed transaction's coordinator. The frame layout is identical to
// a committed frame (the txn-id field carries the global transaction id, the
// cts field the provisional prepare timestamp); only the magic differs, so
// replay can keep the transaction in-doubt instead of applying it. A prepare
// resolves when a later committed frame carries the same global id — the
// participant's resolution record.
const prepMagic uint32 = 0x70725052 // "prPR"

// frameHdrLen is the size of the fixed per-transaction frame header:
// magic + txn id + commit ts + record count + payload length + payload CRC.
const frameHdrLen = 4 + 8 + 8 + 4 + 4 + 4

// Buffer accumulates a single transaction's redo records. It lives in a
// context's CLS slot and is reused across transactions via Reset. Not safe
// for concurrent use — by construction only its owning context touches it.
//
// The buffer doubles as the owning transaction's commit request: Stage frames
// the payload into hdr and enrolls the buffer in the open batch, and the
// leader publishes the outcome through lsn/cerr before signalling done. This
// keeps the whole commit path allocation-free — the framing scratch, the
// park/wake channel, and the batch linkage are all reused with the buffer.
type Buffer struct {
	buf  []byte
	recs int

	// Group-commit request state, owned by the staging committer until its
	// leader signals done; the leader writes lsn/cerr before the signal.
	hdr  [frameHdrLen]byte
	lsn  uint64
	cerr error
	done chan struct{}
}

// NewBuffer returns a buffer with some preallocated capacity.
func NewBuffer() *Buffer {
	return &Buffer{buf: make([]byte, 0, 4096), done: make(chan struct{}, 1)}
}

// frame fills the buffer's header scratch for the given identity.
func (b *Buffer) frame(magic uint32, txnID, cts uint64) {
	binary.LittleEndian.PutUint32(b.hdr[0:], magic)
	binary.LittleEndian.PutUint64(b.hdr[4:], txnID)
	binary.LittleEndian.PutUint64(b.hdr[12:], cts)
	binary.LittleEndian.PutUint32(b.hdr[20:], uint32(b.recs))
	binary.LittleEndian.PutUint32(b.hdr[24:], uint32(len(b.buf)))
	binary.LittleEndian.PutUint32(b.hdr[28:], crc32.ChecksumIEEE(b.buf))
}

// Append adds one redo record.
func (b *Buffer) Append(t RecordType, table uint32, key, value []byte) {
	b.buf = binary.AppendUvarint(b.buf, uint64(t))
	b.buf = binary.AppendUvarint(b.buf, uint64(table))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, value...)
	b.recs++
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int { return b.recs }

// NextRecord decodes one redo record from p, a tail of Buffer.Bytes(). key
// and value are subslices of p (no copies — valid until the buffer is Reset);
// rest is the remaining undecoded tail. ok is false at end of input or on a
// truncated record. The commit path's cache-invalidation hook iterates a
// transaction's touched keys with this, so it must stay allocation-free.
func NextRecord(p []byte) (t RecordType, table uint32, key, value, rest []byte, ok bool) {
	if len(p) == 0 {
		return 0, 0, nil, nil, nil, false
	}
	tv, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, nil, nil, false
	}
	p = p[n:]
	tbl, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, nil, nil, false
	}
	p = p[n:]
	klen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < klen {
		return 0, 0, nil, nil, nil, false
	}
	key = p[n : n+int(klen)]
	p = p[n+int(klen):]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < vlen {
		return 0, 0, nil, nil, nil, false
	}
	value = p[n : n+int(vlen)]
	return RecordType(tv), uint32(tbl), key, value, p[n+int(vlen):], true
}

// Bytes returns the encoded payload (valid until the next Append/Reset).
func (b *Buffer) Bytes() []byte { return b.buf }

// Reset clears the buffer for the next transaction, keeping capacity.
func (b *Buffer) Reset() {
	b.buf = b.buf[:0]
	b.recs = 0
}

// batch is one group-commit round: the slot list of staged commit requests
// accumulated between two leader writes. Batches are pooled on the Manager so
// the steady-state commit path allocates nothing.
type batch struct {
	reqs []*Buffer
}

// Manager is the central committed-transaction log, a leader/follower group
// commit pipeline. Committers stage framed buffers into the open batch under
// stageMu (held for an append); the batch's first committer is its leader and
// writes the whole batch under ioMu with one Write+Flush+Sync. Batch creation
// is serialized by ioMu — a new batch opens only after its predecessor's
// leader has closed the old one while holding ioMu — so batch write order,
// and therefore LSN order, always matches staging order.
type Manager struct {
	stageMu sync.Mutex
	open    *batch // batch accepting joiners; nil when none is open
	ioMu    sync.Mutex
	w       *bufio.Writer
	sink    io.Writer
	marker  BatchBoundaryMarker // non-nil when the sink rotates at batch boundaries

	lsn      atomic.Uint64 // bytes appended
	commits  atomic.Uint64
	batches  atomic.Uint64 // leader write rounds
	syncEach bool

	// stagedTxns counts buffers enrolled in a batch (bumped in Stage while
	// stageMu is held); publishedTxns counts those whose commit state has since
	// been made visible (Published). The difference is the set of committers
	// inside the stage→publish window — the window PublishBarrier waits out so
	// a checkpoint never captures an LSN covering a frame whose in-memory
	// effects its snapshot cannot yet see.
	stagedTxns    atomic.Uint64
	publishedTxns atomic.Uint64

	// failed latches the first write/flush/sync error permanently (wrapped in
	// ErrWALFailed). Once set, Stage fails fast and no further bytes reach the
	// sink: after a torn or unsynced frame the stream tail is unreadable, so
	// appending more frames would silently sever every later commit from
	// Replay. The engine surfaces the latched error as a typed abort and the
	// DB degrades to read-only.
	failed atomic.Pointer[failure]

	pool sync.Pool // *batch
}

// Syncer is optionally implemented by sinks that can make appended bytes
// durable (e.g. *os.File).
type Syncer interface{ Sync() error }

// BatchBoundaryMarker is optionally implemented by sinks that must only ever
// split the log at transaction-frame boundaries — a segmented file sink
// rotates in MarkBoundary, never mid-frame. The manager calls it after each
// batch has been flushed (and synced, when configured), so every mark sits at
// the end of a whole batch of frames. A sink implementing this interface gets
// a Flush per batch even when per-commit sync is off; a MarkBoundary error
// latches the manager like any other log failure.
type BatchBoundaryMarker interface{ MarkBoundary() error }

// ErrWALFailed marks the log permanently failed: a write, flush, sync, or
// rotation error poisoned the stream. It wraps the root cause. All later
// Stage/Commit calls fail fast with the same latched error.
var ErrWALFailed = errors.New("wal: log failed")

// failure boxes the latched error for atomic.Pointer.
type failure struct{ err error }

// latch records cause as the manager's permanent failure (first error wins)
// and returns the latched, ErrWALFailed-wrapped error.
func (m *Manager) latch(cause error) error {
	f := &failure{err: fmt.Errorf("%w: %w", ErrWALFailed, cause)}
	if !m.failed.CompareAndSwap(nil, f) {
		f = m.failed.Load()
	}
	return f.err
}

// Err returns the latched log failure, or nil while the log is healthy.
func (m *Manager) Err() error {
	if f := m.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// NewManager returns a Manager appending to sink. If syncEach is true and the
// sink implements Syncer, every batch is flushed and synced before its
// committers are released — the durable configuration; benchmarks use an
// in-memory sink, matching the paper's setup that keeps all data in memory to
// stress scheduling rather than I/O.
func NewManager(sink io.Writer, syncEach bool) *Manager {
	m := &Manager{w: bufio.NewWriterSize(sink, 1<<20), sink: sink, syncEach: syncEach}
	m.marker, _ = sink.(BatchBoundaryMarker)
	m.pool.New = func() any { return new(batch) }
	return m
}

// OpenBatchLen returns how many buffers the open batch holds (0 when no
// batch is open): its leader plus the followers staged behind it so far.
func (m *Manager) OpenBatchLen() int {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if m.open == nil {
		return 0
	}
	return len(m.open.reqs)
}

// Stage frames the buffer's records as one committed transaction and enrolls
// it in the open batch, returning true when the calling committer was elected
// the batch's leader. Stage never blocks beyond the staging latch; the engine
// calls it inside the commit critical section so log order matches commit
// order. On a failed log (ErrWALFailed latched) it refuses the enrollment and
// returns the latched error — the caller must abort rather than publish. A
// leader must follow up with LeaderFinish, a follower with FollowerWait — the
// buffer must not be touched in between. Every successful Stage must also be
// matched by exactly one Published call once the transaction's commit state is
// visible, or PublishBarrier wedges.
func (m *Manager) Stage(txnID, cts uint64, b *Buffer) (leader bool, err error) {
	return m.stageFrame(txnMagic, txnID, cts, b, true)
}

// StagePrepare enrolls the buffer as a 2PC *prepare* frame under the global
// transaction id gid and provisional timestamp cts. It shares the group-commit
// pipeline with Stage — the same LeaderFinish/FollowerWait contract applies —
// but the frame is written with the prepare magic and is NOT counted toward
// the publish barrier: a prepared transaction publishes nothing until its
// decision arrives (possibly only at recovery), and counting it would wedge
// every checkpoint taken during the in-doubt window.
func (m *Manager) StagePrepare(gid, cts uint64, b *Buffer) (leader bool, err error) {
	return m.stageFrame(prepMagic, gid, cts, b, false)
}

// stageFrame is the shared enrollment path behind Stage and StagePrepare;
// counted selects whether the frame participates in the publish barrier.
func (m *Manager) stageFrame(magic uint32, txnID, cts uint64, b *Buffer, counted bool) (leader bool, err error) {
	if err := m.Err(); err != nil {
		return false, err
	}
	b.frame(magic, txnID, cts)
	if b.done == nil {
		b.done = make(chan struct{}, 1)
	}
	m.stageMu.Lock()
	if counted {
		m.stagedTxns.Add(1)
	}
	bt := m.open
	if bt == nil {
		bt = m.pool.Get().(*batch)
		m.open = bt
		bt.reqs = append(bt.reqs, b)
		m.stageMu.Unlock()
		return true, nil
	}
	bt.reqs = append(bt.reqs, b)
	m.stageMu.Unlock()
	return false, nil
}

// LeaderFinish completes a leader's group commit: it acquires the write
// latch, closes the batch, writes every staged frame, flushes and syncs once
// (when configured), assigns end-of-frame LSNs, and wakes the followers. The
// caller's own LSN and write error are returned; each follower receives its
// own through FollowerWait. The engine runs LeaderFinish inside a
// non-preemptible region: ioMu is a database latch, and a leader preempted
// while holding it could deadlock a same-core high-priority committer that
// becomes the next leader.
func (m *Manager) LeaderFinish(b *Buffer) (uint64, error) {
	m.stageMu.Lock()
	bt := m.open
	if bt == nil || bt.reqs[0] != b {
		m.stageMu.Unlock()
		panic("wal: LeaderFinish by a non-leader")
	}
	m.stageMu.Unlock()

	m.ioMu.Lock()
	// Close the batch: joiners from here on open the next one. Closing under
	// ioMu is what serializes batch creation with batch writing.
	m.stageMu.Lock()
	m.open = nil
	m.stageMu.Unlock()

	// A log that failed after this batch opened (a predecessor's torn write)
	// must not be appended to: the stream past the tear is unreadable, so
	// every frame written now would be unrecoverable. Fail the whole batch
	// with the latched error instead.
	err := m.Err()
	if err == nil {
		for _, r := range bt.reqs {
			if _, err = m.w.Write(r.hdr[:]); err != nil {
				break
			}
			if _, err = m.w.Write(r.buf); err != nil {
				break
			}
		}
		// A rotating sink needs whole batches delivered before each boundary
		// mark, so flush per batch even when per-commit sync is off.
		if err == nil && (m.syncEach || m.marker != nil) {
			err = m.w.Flush()
		}
		if err == nil && m.syncEach {
			if s, ok := m.sink.(Syncer); ok {
				err = s.Sync()
			}
		}
		if err == nil && m.marker != nil {
			err = m.marker.MarkBoundary()
		}
		if err != nil {
			err = m.latch(err)
		}
	}
	if err == nil {
		end := m.lsn.Load()
		for _, r := range bt.reqs {
			end += uint64(frameHdrLen + len(r.buf))
			r.lsn, r.cerr = end, nil
		}
		m.lsn.Store(end)
		m.commits.Add(uint64(len(bt.reqs)))
		m.batches.Add(1)
	} else {
		for _, r := range bt.reqs {
			r.lsn, r.cerr = 0, err
		}
	}
	m.ioMu.Unlock()

	for _, r := range bt.reqs[1:] {
		r.done <- struct{}{}
	}
	lsn, cerr := b.lsn, b.cerr
	bt.reqs = bt.reqs[:0]
	m.pool.Put(bt)
	return lsn, cerr
}

// Published records that a previously Staged transaction's commit state is
// now visible to readers (the engine calls it right after the MVCC layer's
// atomic commit-point store). Call exactly once per successful Stage,
// regardless of how the batch I/O turned out — an aborted-after-stage or
// failed-batch transaction still resolves its versions, which is all the
// barrier needs.
func (m *Manager) Published() { m.publishedTxns.Add(1) }

// PublishBarrier returns once every transaction staged before the call has
// published its commit state. Checkpointing runs it between capturing the
// checkpoint's replay LSN and taking the snapshot timestamp: a frame can be
// written — and the manager's LSN advanced past it — by its batch leader
// before the staging goroutine executes the MVCC commit-point store, so
// without the barrier a checkpoint could cover that frame on disk while its
// snapshot scan still sees the version as uncommitted, and recovery (which
// replays only from the checkpoint's LSN) would lose the acked commit. The
// stage→publish window contains no blocking calls, so the wait is bounded and
// short.
func (m *Manager) PublishBarrier() {
	c0 := m.stagedTxns.Load()
	for m.publishedTxns.Load() < c0 {
		runtime.Gosched()
	}
}

// FollowerWait parks the calling committer until its batch's leader has
// written (and, when configured, synced) the batch, then returns the
// committer's end-of-frame LSN. Followers hold no latch while parked — the
// engine calls FollowerWait outside any non-preemptible region, so a
// preempted committer parked here never blocks the log (paper §4.4).
func (m *Manager) FollowerWait(b *Buffer) (uint64, error) {
	<-b.done
	return b.lsn, b.cerr
}

// Commit appends the buffer's records as one committed transaction with the
// given id and commit timestamp through the group-commit pipeline, returning
// the end-of-frame LSN once the transaction's batch has been written. It is
// the single-call form of Stage + LeaderFinish/FollowerWait.
func (m *Manager) Commit(txnID, cts uint64, b *Buffer) (uint64, error) {
	leader, err := m.Stage(txnID, cts, b)
	if err != nil {
		return 0, err
	}
	// Standalone commits have no separate publication step; count it here so
	// PublishBarrier stays balanced for direct Manager.Commit users.
	m.Published()
	if leader {
		return m.LeaderFinish(b)
	}
	return m.FollowerWait(b)
}

// Flush drains buffered bytes to the sink. On a failed log it returns the
// latched error without touching the sink: the buffered tail may end in a
// torn frame, and pushing more bytes past it would corrupt the stream.
func (m *Manager) Flush() error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if err := m.Err(); err != nil {
		return err
	}
	if err := m.w.Flush(); err != nil {
		return m.latch(err)
	}
	return nil
}

// Sync drains buffered bytes to the sink and, when the sink supports it,
// makes them durable. Like Flush it refuses to touch a failed log, and an I/O
// error here latches the manager. Checkpointing uses it to guarantee the log
// is durable up to the checkpoint's LSN before the checkpoint is installed.
func (m *Manager) Sync() error {
	m.ioMu.Lock()
	defer m.ioMu.Unlock()
	if err := m.Err(); err != nil {
		return err
	}
	if err := m.w.Flush(); err != nil {
		return m.latch(err)
	}
	if s, ok := m.sink.(Syncer); ok {
		if err := s.Sync(); err != nil {
			return m.latch(err)
		}
	}
	return nil
}

// LSN returns the current end-of-log position in bytes.
func (m *Manager) LSN() uint64 { return m.lsn.Load() }

// SetLSN initializes the end-of-log position. Recovery-only: call it once,
// after replaying an existing log and before the first commit, so LSNs keep
// counting from the recovered stream's end.
func (m *Manager) SetLSN(lsn uint64) { m.lsn.Store(lsn) }

// Commits returns the number of committed transactions logged.
func (m *Manager) Commits() uint64 { return m.commits.Load() }

// Batches returns the number of group-commit write rounds; Commits/Batches is
// the achieved batching factor.
func (m *Manager) Batches() uint64 { return m.batches.Load() }

// ErrCorrupt reports a malformed or checksum-failing log stream.
var ErrCorrupt = errors.New("wal: corrupt log")

// CommittedTxn is one recovered transaction.
type CommittedTxn struct {
	TxnID, CTS uint64
	Records    []Record
}

// PreparedTxn is a recovered 2PC prepare record: redo that was durable at the
// crash but whose commit decision was not found in this shard's stream. The
// caller resolves it against the coordinator's decision record — commit by
// applying Records at CTS, or discard (presumed abort) when no decision
// exists anywhere.
type PreparedTxn struct {
	// GID is the distributed transaction's global id (shared by every
	// participant shard and by the coordinator's decision record).
	GID uint64
	// CTS is the provisional timestamp assigned at prepare.
	CTS     uint64
	Records []Record
}

// ReplayResult reports how far a replay got through the stream — the
// information recovery needs to distinguish a benign torn tail (truncate and
// keep appending at Offset) from mid-stream damage (ErrCorrupt, do not trust
// anything past Offset).
type ReplayResult struct {
	// Txns is the number of committed transactions applied.
	Txns int
	// Offset is the number of stream bytes consumed through the end of the
	// last fully-valid, applied frame. Added to the stream's starting LSN it
	// is the exact position appending may safely resume from.
	Offset uint64
	// LastCTS is the commit timestamp of the last applied transaction (0 when
	// none were).
	LastCTS uint64
	// Torn reports that the stream ended inside a frame — the torn-write tail
	// a crash mid-append leaves behind. The bytes past Offset are garbage but
	// everything before is intact.
	Torn bool
}

// maxFramePayload bounds a single frame's payload during replay so a corrupt
// length field cannot balloon recovery memory.
const maxFramePayload = 1 << 30

// Replay decodes a log stream and invokes apply for each committed
// transaction in log order. A truncated final frame (torn write) terminates
// replay cleanly; a checksum mismatch returns ErrCorrupt. It is ReplayStream
// without the positional result.
func Replay(r io.Reader, apply func(CommittedTxn) error) error {
	_, err := ReplayStream(r, apply)
	return err
}

// ReplayStream decodes a log stream, invokes apply for each committed
// transaction in log order, and reports how far it got. A truncated final
// frame terminates replay cleanly with Torn set; bad magic, a checksum
// mismatch, or a malformed payload return ErrCorrupt alongside the result for
// the valid prefix. Prepare frames (2PC) are consumed and skipped; use
// ReplayStreamPrepared to observe them.
func ReplayStream(r io.Reader, apply func(CommittedTxn) error) (ReplayResult, error) {
	return ReplayStreamPrepared(r, apply, nil)
}

// ReplayStreamPrepared is ReplayStream with a second callback receiving each
// 2PC prepare frame in log order. Prepare frames advance Offset (they are
// whole, CRC-verified frames and appending must resume past them) but do not
// count in Txns or LastCTS — their effects are not applied here. onPrepare may
// be nil to skip them. The caller is responsible for matching prepares against
// later committed frames with the same id (the resolution records) to find
// the in-doubt set.
func ReplayStreamPrepared(r io.Reader, apply func(CommittedTxn) error, onPrepare func(PreparedTxn) error) (ReplayResult, error) {
	br := bufio.NewReader(r)
	var res ReplayResult
	for {
		var hdr [frameHdrLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return res, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				res.Torn = true // torn header: end of usable log
				return res, nil
			}
			return res, err
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		if magic != txnMagic && magic != prepMagic {
			return res, fmt.Errorf("%w: bad magic at offset %d", ErrCorrupt, res.Offset)
		}
		txn := CommittedTxn{
			TxnID: binary.LittleEndian.Uint64(hdr[4:]),
			CTS:   binary.LittleEndian.Uint64(hdr[12:]),
		}
		nrec := binary.LittleEndian.Uint32(hdr[20:])
		plen := binary.LittleEndian.Uint32(hdr[24:])
		want := binary.LittleEndian.Uint32(hdr[28:])
		if plen > maxFramePayload {
			return res, fmt.Errorf("%w: implausible payload length %d at offset %d", ErrCorrupt, plen, res.Offset)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				res.Torn = true // torn payload
				return res, nil
			}
			return res, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return res, fmt.Errorf("%w: checksum mismatch for txn %d at offset %d", ErrCorrupt, txn.TxnID, res.Offset)
		}
		recs, err := decodePayload(payload, int(nrec))
		if err != nil {
			return res, err
		}
		if magic == prepMagic {
			if onPrepare != nil {
				if err := onPrepare(PreparedTxn{GID: txn.TxnID, CTS: txn.CTS, Records: recs}); err != nil {
					return res, err
				}
			}
			res.Offset += uint64(frameHdrLen) + uint64(plen)
			continue
		}
		txn.Records = recs
		if err := apply(txn); err != nil {
			return res, err
		}
		res.Txns++
		res.Offset += uint64(frameHdrLen) + uint64(plen)
		res.LastCTS = txn.CTS
	}
}

func decodePayload(p []byte, nrec int) ([]Record, error) {
	recs := make([]Record, 0, nrec)
	for i := 0; i < nrec; i++ {
		var rec Record
		t, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated record type", ErrCorrupt)
		}
		rec.Type = RecordType(t)
		p = p[n:]
		tbl, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated table id", ErrCorrupt)
		}
		rec.Table = uint32(tbl)
		p = p[n:]
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return nil, fmt.Errorf("%w: truncated key", ErrCorrupt)
		}
		p = p[n:]
		rec.Key = append([]byte(nil), p[:klen]...)
		p = p[klen:]
		vlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < vlen {
			return nil, fmt.Errorf("%w: truncated value", ErrCorrupt)
		}
		p = p[n:]
		rec.Value = append([]byte(nil), p[:vlen]...)
		p = p[vlen:]
		recs = append(recs, rec)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: trailing payload bytes", ErrCorrupt)
	}
	return recs, nil
}
