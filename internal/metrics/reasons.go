package metrics

import "sync/atomic"

// AbortReason classifies why a request failed to commit — the typed
// taxonomy the facade counts per shard and reports as DB.Stats' Aborts*
// counters.
type AbortReason uint8

// Abort reasons.
const (
	// AbortConflict is a concurrency conflict (write-write or serializable
	// validation) that exhausted its retry budget.
	AbortConflict AbortReason = iota
	// AbortDeadline is a transaction canceled by its own deadline, whether
	// it was still queued (shed) or already running.
	AbortDeadline
	// AbortCanceled is an explicit cancellation by the submitter.
	AbortCanceled
	// AbortQueueFull is a request rejected up front: scheduler queues full
	// or admission control shed it.
	AbortQueueFull
	// AbortWALFailed is a write rejected (or a commit failed) because the
	// write-ahead log latched a permanent I/O failure and the database
	// degraded to read-only.
	AbortWALFailed
	// AbortOther is any other transaction-body error.
	AbortOther
	// NumAbortReasons sizes AbortCounters.
	NumAbortReasons
)

// AbortCounters is a fixed vector of per-reason counters. The zero value is
// ready to use; all methods are safe for concurrent use.
type AbortCounters struct {
	counts [NumAbortReasons]atomic.Uint64
}

// Inc adds one to reason r's counter.
func (c *AbortCounters) Inc(r AbortReason) {
	if r < NumAbortReasons {
		c.counts[r].Add(1)
	}
}

// Load returns reason r's current count.
func (c *AbortCounters) Load(r AbortReason) uint64 {
	if r >= NumAbortReasons {
		return 0
	}
	return c.counts[r].Load()
}
