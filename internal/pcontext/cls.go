package pcontext

// CLS is context-local storage: the PreemptDB replacement for thread-local
// storage (paper §4.3). A database engine keeps per-thread state — log
// buffers, RNG streams, scratch arenas — in TLS; once a thread hosts several
// transaction contexts that state must move to the context, or two contexts
// would corrupt each other's buffers. The paper swaps the fs/gs TLS area on
// every context switch so unmodified library code keeps working; in Go the
// equivalent is that engine code reaches this state only through the Context
// it is running on, which changes identity at exactly the same points the
// paper's TLS swap happens.
//
// Slots hold arbitrary per-context objects registered by higher layers
// (the WAL buffer, the workload RNG, …) without creating an import cycle;
// the hot counters are direct fields.
type CLS struct {
	// Accesses counts simulated instruction boundaries (Poll calls). The
	// cooperative policy derives its yield interval from it, mirroring the
	// paper's "yield after accessing every N records" instrumentation.
	Accesses uint64

	// LastYield records the Accesses value at the previous cooperative
	// yield, so the policy yields every (Accesses - LastYield) ≥ interval.
	LastYield uint64

	// HighPrio marks the context as currently executing a high-priority
	// request (set/cleared by the scheduler around each request), letting
	// lower layers — the engine's commit path — attribute their latency
	// observations to the right priority class without plumbing a flag
	// through every call.
	HighPrio bool

	// Slots carries typed per-context objects owned by higher layers.
	Slots [NumSlots]any
}

// Well-known CLS slot indexes. Higher layers assert the concrete types.
const (
	// SlotLog holds the context's *wal.Buffer redo buffer.
	SlotLog = iota
	// SlotSnapshot holds the context's *mvcc.ActiveSlot for version GC.
	SlotSnapshot
	// SlotScratch holds a reusable scratch allocation area.
	SlotScratch
	// SlotOwner holds the *engine.Engine that attached this context: the CLS
	// log buffer and snapshot slot in SlotLog/SlotSnapshot belong to exactly
	// one engine, and in a sharded database a context may touch several. An
	// engine that is not the owner must not use the pooled CLS state (its
	// oracle did not register the snapshot slot) and begins guest
	// transactions instead.
	SlotOwner
	// SlotUser is free for applications embedding the engine.
	SlotUser
	// NumSlots is the CLS slot count.
	NumSlots
)

func newCLS() CLS { return CLS{} }

// Get returns the object in slot i (nil if unset).
func (c *CLS) Get(i int) any { return c.Slots[i] }

// Set stores v in slot i.
func (c *CLS) Set(i int, v any) { c.Slots[i] = v }
