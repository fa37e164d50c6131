package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stageBuf builds a one-record buffer carrying val so tests can check that
// replay hands back exactly what each committer staged.
func stageBuf(val byte) *Buffer {
	b := NewBuffer()
	b.Append(RecUpdate, 1, []byte{val}, []byte{val})
	return b
}

// mustStage stages b on a healthy manager, failing the test on a latched log
// error, and returns whether the committer was elected leader.
func mustStage(t *testing.T, m *Manager, id, cts uint64, b *Buffer) bool {
	t.Helper()
	leader, err := m.Stage(id, cts, b)
	if err != nil {
		t.Fatalf("stage %d: %v", id, err)
	}
	return leader
}

// TestLeaderFollowerProtocol drives the split Stage/LeaderFinish/FollowerWait
// API directly: the first committer into an empty batch is leader, later
// stagers are followers, and the leader's single write releases everyone with
// LSNs in staging order.
func TestLeaderFollowerProtocol(t *testing.T) {
	var sink bytes.Buffer
	m := NewManager(&sink, false)

	b1, b2, b3 := stageBuf(1), stageBuf(2), stageBuf(3)
	if !mustStage(t, m, 101, 11, b1) {
		t.Fatal("first stager must be leader")
	}
	if mustStage(t, m, 102, 12, b2) || mustStage(t, m, 103, 13, b3) {
		t.Fatal("later stagers must be followers")
	}

	type res struct {
		lsn uint64
		err error
	}
	ch2, ch3 := make(chan res, 1), make(chan res, 1)
	go func() { l, e := m.FollowerWait(b2); ch2 <- res{l, e} }()
	go func() { l, e := m.FollowerWait(b3); ch3 <- res{l, e} }()

	lsn1, err := m.LeaderFinish(b1)
	if err != nil {
		t.Fatal(err)
	}
	r2, r3 := <-ch2, <-ch3
	if r2.err != nil || r3.err != nil {
		t.Fatalf("follower errors: %v %v", r2.err, r3.err)
	}
	if !(lsn1 < r2.lsn && r2.lsn < r3.lsn) {
		t.Fatalf("LSNs out of staging order: %d %d %d", lsn1, r2.lsn, r3.lsn)
	}
	if m.Batches() != 1 || m.Commits() != 3 {
		t.Fatalf("batches=%d commits=%d, want 1/3", m.Batches(), m.Commits())
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	if err := Replay(&sink, func(tx CommittedTxn) error {
		got = append(got, tx.CTS)
		if len(tx.Records) != 1 || tx.Records[0].Value[0] != byte(tx.CTS-10) {
			t.Fatalf("txn %d carries wrong payload %v", tx.TxnID, tx.Records)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[11 12 13]" {
		t.Fatalf("replayed CTS order %v", got)
	}
}

// syncCountingSink counts Write and Sync calls and injects latency so that
// concurrent committers overlap with batch I/O and pile into the next batch.
type syncCountingSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	syncs  int
	delay  time.Duration
}

func (s *syncCountingSink) Write(p []byte) (int, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	return s.buf.Write(p)
}

func (s *syncCountingSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	return nil
}

// TestGroupCommitBatchesConcurrentCommitters checks the tentpole property:
// with many concurrent committers and slow I/O, commits amortize into far
// fewer batch writes than transactions, and the resulting log replays to
// exactly the committed set through the unmodified Replay.
func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	sink := &syncCountingSink{delay: time.Millisecond}
	m := NewManager(sink, true)

	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBuffer()
			for i := 0; i < per; i++ {
				b.Reset()
				id := uint64(w*per + i + 1)
				b.Append(RecInsert, 1, []byte{byte(w), byte(i)}, []byte{byte(w)})
				if _, err := m.Commit(id, 1000+id, b); err != nil {
					t.Errorf("commit %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if m.Commits() != workers*per {
		t.Fatalf("commits = %d, want %d", m.Commits(), workers*per)
	}
	if m.Batches() >= m.Commits() {
		t.Fatalf("no batching: %d batches for %d commits", m.Batches(), m.Commits())
	}
	// syncEach means one flush+sync per batch, not per commit.
	if sink.syncs != int(m.Batches()) {
		t.Fatalf("syncs = %d, batches = %d", sink.syncs, m.Batches())
	}
	t.Logf("batching factor: %d commits / %d batches", m.Commits(), m.Batches())

	seen := make(map[uint64]bool)
	if err := Replay(&sink.buf, func(tx CommittedTxn) error {
		if seen[tx.TxnID] {
			t.Fatalf("txn %d replayed twice", tx.TxnID)
		}
		seen[tx.TxnID] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d txns, want %d", len(seen), workers*per)
	}
}

// TestOpenBatchLen: the open batch counts its leader and every follower
// staged behind it, and closes when the leader writes it.
func TestOpenBatchLen(t *testing.T) {
	var sink bytes.Buffer
	m := NewManager(&sink, false)
	if n := m.OpenBatchLen(); n != 0 {
		t.Fatalf("fresh manager: OpenBatchLen = %d", n)
	}
	b1, b2 := stageBuf(1), stageBuf(2)
	if !mustStage(t, m, 1, 1, b1) {
		t.Fatal("expected leader")
	}
	if n := m.OpenBatchLen(); n != 1 {
		t.Fatalf("after the leader: OpenBatchLen = %d", n)
	}
	if mustStage(t, m, 2, 2, b2) {
		t.Fatal("joiner must not be leader")
	}
	if n := m.OpenBatchLen(); n != 2 {
		t.Fatalf("after a follower: OpenBatchLen = %d", n)
	}
	if _, err := m.LeaderFinish(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FollowerWait(b2); err != nil {
		t.Fatal(err)
	}
	if n := m.OpenBatchLen(); n != 0 {
		t.Fatalf("after the write: OpenBatchLen = %d", n)
	}
	if m.Commits() != 2 || m.Batches() != 1 {
		t.Fatalf("commits=%d batches=%d", m.Commits(), m.Batches())
	}
}

// TestTornBatchRecovery truncates a log mid-way through a multi-transaction
// batch: replay must recover every whole frame — including frames from the
// torn batch that precede the tear — and stop cleanly at the torn frame.
func TestTornBatchRecovery(t *testing.T) {
	var sink bytes.Buffer
	m := NewManager(&sink, false)

	// Batch 1: txns 1,2. Batch 2: txns 3,4,5.
	mkBatch := func(ids ...uint64) {
		bufs := make([]*Buffer, len(ids))
		for i, id := range ids {
			bufs[i] = stageBuf(byte(id))
			if got := mustStage(t, m, id, 100+id, bufs[i]); got != (i == 0) {
				t.Fatalf("stage %d: leader=%v", id, got)
			}
		}
		var wg sync.WaitGroup
		for _, f := range bufs[1:] {
			wg.Add(1)
			go func(f *Buffer) { defer wg.Done(); m.FollowerWait(f) }(f)
		}
		if _, err := m.LeaderFinish(bufs[0]); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	mkBatch(1, 2)
	mkBatch(3, 4, 5)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	full := sink.Bytes()
	// Tear inside txn 5's frame: keep everything up to its last 3 bytes.
	torn := full[:len(full)-3]
	var got []uint64
	if err := Replay(bytes.NewReader(torn), func(tx CommittedTxn) error {
		got = append(got, tx.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("recovered %v, want [1 2 3 4]", got)
	}

	// Tear that removes txn 5 entirely plus part of txn 4's header.
	frameLen := (len(full) - 0) / 5 // all frames equal-sized here
	torn2 := full[:len(full)-frameLen-frameHdrLen/2]
	got = got[:0]
	if err := Replay(bytes.NewReader(torn2), func(tx CommittedTxn) error {
		got = append(got, tx.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("recovered %v, want [1 2 3]", got)
	}
}

// TestGroupCommitErrorPropagatesToWholeBatch verifies that a failed batch
// write surfaces the error to the leader and every follower.
type failingSink struct{ fail bool }

func (s *failingSink) Write(p []byte) (int, error) {
	if s.fail {
		return 0, fmt.Errorf("sink: injected failure")
	}
	return len(p), nil
}

func TestGroupCommitErrorPropagatesToWholeBatch(t *testing.T) {
	sink := &failingSink{fail: true}
	m := NewManager(sink, true) // syncEach forces the flush to hit the sink

	b1, b2 := stageBuf(1), stageBuf(2)
	if !mustStage(t, m, 1, 1, b1) {
		t.Fatal("expected leader")
	}
	mustStage(t, m, 2, 2, b2)
	errCh := make(chan error, 1)
	go func() { _, err := m.FollowerWait(b2); errCh <- err }()
	if _, err := m.LeaderFinish(b1); err == nil {
		t.Fatal("leader error lost")
	}
	if err := <-errCh; err == nil {
		t.Fatal("follower error lost")
	}
	if m.Commits() != 0 || m.LSN() != 0 {
		t.Fatalf("failed batch counted: commits=%d lsn=%d", m.Commits(), m.LSN())
	}
}
