// Package hotcache is a sharded, size-bounded read-through cache that sits in
// front of the MVCC read path: skewed point reads hit here without walking a
// version chain or entering a scheduler core. Entries are stamped with the
// commit timestamp of the version they were read at, so a transaction whose
// begin timestamp covers the entry (begin >= entry ts) gets exactly the value
// snapshot isolation would have read; older snapshots bypass the cache.
//
// Coherence is a two-phase write protocol driven by the storage engine's
// commit path:
//
//   - BeginWrites runs strictly BEFORE the MVCC commit-point store: it
//     removes the touched keys' entries and marks their hash stripes
//     write-pending, which blocks concurrent fills of colliding keys for the
//     whole publication window.
//   - EndWrites runs after publication (before the commit is acknowledged):
//     it clears the pending marks and bumps the stripes' sequence numbers, so
//     any fill whose MVCC read started before publication — captured via
//     FillBegin — is discarded rather than inserting a stale value.
//
// A fill (FillBegin -> MVCC read -> TryFill) therefore only installs a value
// when no write to a colliding stripe published or was in flight anywhere
// between capture and insert; together with the begin >= entry-ts hit rule
// this makes a cache hit indistinguishable from an MVCC read at the same
// snapshot (the stale-hit linearizability the torture test asserts).
//
// The write-side hooks run inside the engine's non-preemptible commit section
// and are allocation-free: fixed stripe arrays, map lookups via the compiler's
// string-conversion optimization, and deletes keyed by the entry's own
// interned key string.
package hotcache

import (
	"sync"

	"preemptdb/internal/wal"
)

// numStripes is the per-shard count of write-pending stripes. A stripe
// collision only ever delays a fill (never a hit), so the count trades a tiny
// fixed array against false fill rejections under write load.
const numStripes = 256

// entryOverhead approximates the per-entry bookkeeping bytes charged against
// the budget on top of key and value lengths.
const entryOverhead = 96

// Config configures a cache.
type Config struct {
	// MaxBytes bounds the cache's total memory charge (keys + values +
	// bookkeeping). Least-recently-used entries are evicted past it.
	MaxBytes int64
	// Shards is the number of lock shards (rounded up to a power of two,
	// default 8). More shards cut contention between readers and committers.
	Shards int
}

// Cache is the sharded cache. Safe for concurrent use.
type Cache struct {
	shards []cshard
	mask   uint64
}

type entry struct {
	key        string
	table      uint32
	val        []byte
	ts         uint64 // commit timestamp the value was read at
	size       int64
	prev, next *entry // LRU list, most recent at head.next
}

type cshard struct {
	mu     sync.Mutex
	tables map[uint32]map[string]*entry
	head   entry // LRU sentinel
	bytes  int64
	budget int64
	// pending counts in-flight writers per stripe (non-zero blocks fills);
	// seq counts completed write publications per stripe (a change between a
	// fill's capture and its insert discards the fill).
	pending [numStripes]uint32
	seq     [numStripes]uint64
	// hits, misses and invalidations are this shard's share of Counts,
	// bumped under mu by the lookup or write window that already holds it.
	hits, misses, invalidations uint64

	_ [32]byte // keep neighboring shards off one cache line
}

// New returns a cache with the given configuration.
func New(cfg Config) *Cache {
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	for n&(n-1) != 0 {
		n++
	}
	c := &Cache{shards: make([]cshard, n), mask: uint64(n - 1)}
	budget := cfg.MaxBytes / int64(n)
	if budget < 1 {
		budget = 1
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.tables = make(map[uint32]map[string]*entry)
		sh.budget = budget
		sh.head.next = &sh.head
		sh.head.prev = &sh.head
	}
	return c
}

// hash is FNV-1a over the table id and key, inlined to stay allocation-free
// on the commit path.
func hash(table uint32, key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 4; i++ {
		h ^= uint64(table >> (8 * i) & 0xff)
		h *= 1099511628211
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (c *Cache) shard(h uint64) *cshard { return &c.shards[h&c.mask] }

// stripe selects the write-pending stripe from the upper hash bits so shard
// and stripe selection stay independent.
func stripe(h uint64) int { return int(h>>32) & (numStripes - 1) }

// Lookup returns the cached value for (table, key) when the entry's stamp is
// covered by the reader's begin timestamp. The returned slice is shared and
// must be treated as read-only (the same contract as an MVCC read). Hits and
// misses are counted.
func (c *Cache) Lookup(table uint32, key []byte, begin uint64) ([]byte, bool) {
	return c.lookup(table, key, begin, true)
}

// Peek is Lookup for opportunistic fast paths: hits count, misses do not —
// the caller falls through to the full read path, whose own Lookup records
// the miss, and double-counting would understate the hit rate.
func (c *Cache) Peek(table uint32, key []byte, begin uint64) ([]byte, bool) {
	return c.lookup(table, key, begin, false)
}

func (c *Cache) lookup(table uint32, key []byte, begin uint64, countMiss bool) ([]byte, bool) {
	h := hash(table, key)
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// An entry stamped after the reader's snapshot is a miss too: bypass,
	// don't evict — the entry is still right for current readers.
	e, ok := sh.tables[table][string(key)]
	if !ok || begin < e.ts {
		if countMiss {
			sh.misses++
		}
		return nil, false
	}
	sh.moveFront(e)
	sh.hits++
	return e.val, true
}

// FillToken carries a fill's capture state between FillBegin and TryFill.
type FillToken struct {
	h   uint64
	seq uint64
}

// FillBegin captures the key's stripe state. Call BEFORE performing the MVCC
// read whose result may be filled; TryFill later discards the fill if any
// colliding write published (or is still publishing) since this capture.
func (c *Cache) FillBegin(table uint32, key []byte) FillToken {
	h := hash(table, key)
	sh := c.shard(h)
	sh.mu.Lock()
	tok := FillToken{h: h, seq: sh.seq[stripe(h)]}
	sh.mu.Unlock()
	return tok
}

// TryFill inserts the value read at commit timestamp ts, unless a write to a
// colliding stripe is pending or published since the token's capture. The
// value and key are copied. Returns whether the fill was installed.
func (c *Cache) TryFill(tok FillToken, table uint32, key, val []byte, ts uint64) bool {
	sh := c.shard(tok.h)
	st := stripe(tok.h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pending[st] != 0 || sh.seq[st] != tok.seq {
		return false // a writer published (or is publishing) under us
	}
	m := sh.tables[table]
	if m == nil {
		m = make(map[string]*entry)
		sh.tables[table] = m
	}
	if old, ok := m[string(key)]; ok {
		// Concurrent fill of the same key: keep the newer stamp.
		if ts <= old.ts {
			return false
		}
		sh.remove(old)
	}
	e := &entry{
		key:   string(key),
		table: table,
		val:   append([]byte(nil), val...),
		ts:    ts,
		size:  int64(len(key)+len(val)) + entryOverhead,
	}
	m[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.size
	for sh.bytes > sh.budget && sh.head.prev != &sh.head {
		sh.remove(sh.head.prev)
	}
	return true
}

// BeginWrites enters the publication window for every key in the
// transaction's redo buffer: entries are removed and their stripes marked
// write-pending. MUST run strictly before the MVCC commit-point store and be
// balanced by exactly one EndWrites with the same buffer contents (on the
// commit, abort, and error paths alike). Allocation-free.
func (c *Cache) BeginWrites(buf *wal.Buffer) {
	p := buf.Bytes()
	for {
		_, table, key, _, rest, ok := wal.NextRecord(p)
		if !ok {
			return
		}
		p = rest
		h := hash(table, key)
		sh := c.shard(h)
		sh.mu.Lock()
		sh.pending[stripe(h)]++
		if m := sh.tables[table]; m != nil {
			if e, ok := m[string(key)]; ok {
				sh.remove(e)
				sh.invalidations++
			}
		}
		sh.mu.Unlock()
	}
}

// EndWrites leaves the publication window entered by BeginWrites: pending
// marks drop and stripe sequence numbers advance, discarding any fill whose
// read raced the publication. Run after the MVCC commit-point store (or after
// the abort that replaced it). Allocation-free.
func (c *Cache) EndWrites(buf *wal.Buffer) {
	p := buf.Bytes()
	for {
		_, table, key, _, rest, ok := wal.NextRecord(p)
		if !ok {
			return
		}
		p = rest
		h := hash(table, key)
		sh := c.shard(h)
		sh.mu.Lock()
		sh.pending[stripe(h)]--
		sh.seq[stripe(h)]++
		sh.mu.Unlock()
	}
}

// Counts is the cache's traffic since New: hits served, misses that fell
// through to the MVCC read path, and entries removed by committing writers.
type Counts struct {
	Hits, Misses, Invalidations uint64
}

// Counts sums every shard's counters, each read under its shard's lock. A
// nil cache counts nothing.
func (c *Cache) Counts() Counts {
	var n Counts
	if c == nil {
		return n
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n.Hits += sh.hits
		n.Misses += sh.misses
		n.Invalidations += sh.invalidations
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries (tests and observability).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, m := range sh.tables {
			n += len(m)
		}
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the current memory charge across shards.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// remove unlinks e and drops it from its table map. Caller holds sh.mu.
func (sh *cshard) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	sh.bytes -= e.size
	delete(sh.tables[e.table], e.key)
}

func (sh *cshard) pushFront(e *entry) {
	e.next = sh.head.next
	e.prev = &sh.head
	e.next.prev = e
	sh.head.next = e
}

func (sh *cshard) moveFront(e *entry) {
	if sh.head.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	sh.pushFront(e)
}
