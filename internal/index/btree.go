// Package index implements the concurrent ordered index PreemptDB tables are
// built on: a B+tree synchronized with optimistic lock coupling (OLC).
//
// Readers traverse without taking latches, validating per-node version
// counters and restarting on conflict, so lookups and scans never block —
// the property (together with MVCC) that makes pausing a preempted
// transaction safe in PreemptDB. Writers latch one leaf or, on the split path,
// a parent and at most two of its children.
//
// Because database latches have no deadlock detection (paper §4.4), every
// section that holds a latch runs inside a non-preemptible region: if a
// context were preempted while holding a node latch, the high-priority
// transaction running on the *same core* could block on that latch forever —
// a self-deadlock that cannot be resolved by waiting. Traversals additionally
// poll the context at every node visit, giving the sub-microsecond preemption
// granularity the engine relies on.
//
// Memory model. A node's mutable state is two atomic words: its version and a
// pointer to an immutable view. Writers never edit a view; under the latch
// they publish a modified copy. A view orders the live slots of the node's
// entry storage, and a slot is written once, under the latch, before the
// first view that names it is published. So everything an optimistic reader
// touches is an atomic load or memory that cannot change once it is
// reachable, and a reader always holds a consistent picture of one node at
// one instant. What version validation still protects is the relation
// *between* nodes: that the child a reader moved to was still the one
// covering its key when the child's version was sampled.
package index

import (
	"bytes"
	"sync/atomic"

	"preemptdb/internal/pcontext"
)

// maxKeys is the node fanout. 64 keeps nodes around a few cache lines of key
// headers while bounding restart work.
const maxKeys = 64

// version-word layout: bit0 = locked, bits 1.. = counter.
const (
	lockedBit  = 1 << 0
	versionInc = 1 << 1
)

type node[V any] struct {
	version atomic.Uint64
	view    atomic.Pointer[view[V]] // replaced, never edited, under the latch
	leaf    bool                    // fixed at creation
}

// slots is a node's entry storage, in arrival order. Slot i is written once,
// by a latch holder, before any view naming it is published, and is immutable
// from then on; an entry that is deleted or replaced leaves a dead slot
// behind. Exactly one of values and children is used, depending on leaf.
type slots[V any] struct {
	keys     [maxKeys][]byte
	values   [maxKeys]V
	children [maxKeys]*node[V] // inner: the child right of keys[i], covering keys >= keys[i]
}

// view is one immutable state of a node: the live slots in ascending key
// order. Copying a view to change the node costs a hundred bytes, not the
// node's arrays; copying those on every insert tripled the cost of an insert
// and, through the collector, of loading a table.
type view[V any] struct {
	slots *slots[V]
	link  *node[V]       // leaf: right sibling; inner: leftmost child, covering keys < key(0)
	n     int            // live entries
	used  int            // slots written so far, live or dead
	order [maxKeys]uint8 // order[:n]: the live slots by key
}

func (v *view[V]) key(i int) []byte { return v.slots.keys[v.order[i]] }
func (v *view[V]) value(i int) V    { return v.slots.values[v.order[i]] }

// child returns child i of an inner node: it covers key(i-1) <= k < key(i).
func (v *view[V]) child(i int) *node[V] {
	if i == 0 {
		return v.link
	}
	return v.slots.children[v.order[i-1]]
}

// search returns the index of the first key >= k, and whether it equals k.
func (v *view[V]) search(k []byte) (int, bool) {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(v.key(mid), k) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// compact returns a view of entries [lo, hi) of v on storage of its own, with
// no dead slots. link is left for the caller to set.
func (v *view[V]) compact(lo, hi int) *view[V] {
	s := &slots[V]{}
	nv := &view[V]{slots: s, n: hi - lo, used: hi - lo}
	for i := lo; i < hi; i++ {
		from := v.order[i]
		s.keys[i-lo], s.values[i-lo], s.children[i-lo] = v.slots.keys[from], v.slots.values[from], v.slots.children[from]
		nv.order[i-lo] = uint8(i - lo)
	}
	return nv
}

func (v *view[V]) clone() *view[V] {
	nv := *v
	return &nv
}

// with returns a copy of v with one more entry at position i of the order.
// v must have fewer than maxKeys live entries and be, or derive from, its
// node's current view, and the caller must hold the node's latch: the entry
// goes to the next free slot of v's own storage — or, when dead entries have
// used the storage up, to a compacted copy of it.
func (v *view[V]) with(i int, key []byte, value V, child *node[V]) *view[V] {
	var nv *view[V]
	if v.used < maxKeys {
		nv = v.clone()
	} else {
		nv = v.compact(0, v.n)
		nv.link = v.link
	}
	s := nv.used
	nv.slots.keys[s], nv.slots.values[s], nv.slots.children[s] = key, value, child
	copy(nv.order[i+1:], nv.order[i:nv.n])
	nv.order[i] = uint8(s)
	nv.n++
	nv.used++
	return nv
}

// without returns a copy of v with entry i dropped from the order; its slot
// stays behind, dead, until the storage is next compacted.
func (v *view[V]) without(i int) *view[V] {
	nv := v.clone()
	copy(nv.order[i:], nv.order[i+1:nv.n])
	nv.n--
	return nv
}

// readLock samples the version for optimistic validation; ok is false when
// the node is latched and the caller must restart.
func (n *node[V]) readLock() (uint64, bool) {
	v := n.version.Load()
	return v, v&lockedBit == 0
}

// readUnlock validates that the node did not change since readLock.
func (n *node[V]) readUnlock(v uint64) bool { return n.version.Load() == v }

// writeLock acquires the latch, spinning: latches are held for nanoseconds.
func (n *node[V]) writeLock() {
	for {
		v := n.version.Load()
		if v&lockedBit == 0 && n.version.CompareAndSwap(v, v|lockedBit) {
			return
		}
	}
}

// writeUnlock releases the latch and bumps the version counter.
func (n *node[V]) writeUnlock() { n.version.Add(versionInc - lockedBit) }

// update is the tree's one latched leaf mutation: if n is still at version
// ver, so that the view read at ver is still current, it latches n and
// publishes edit() as the new view. Latching is a critical section — a context preempted between the latch and
// its release would deadlock a same-core transaction that needs this leaf —
// so it runs non-preemptibly (paper §4.4).
func (n *node[V]) update(ctx *pcontext.Context, ver uint64, edit func() *view[V]) (ok bool) {
	pcontext.NonPreemptible(ctx, func() {
		if ok = n.version.CompareAndSwap(ver, ver|lockedBit); ok {
			n.view.Store(edit())
			n.writeUnlock()
		}
	})
	return ok
}

// Tree is a concurrent B+tree from []byte keys to values of type V.
// The zero value is not usable; call New.
type Tree[V any] struct {
	root     atomic.Pointer[node[V]]
	size     atomic.Int64
	restarts atomic.Uint64
}

func newNode[V any](leaf bool, v *view[V]) *node[V] {
	n := &node[V]{leaf: leaf}
	n.view.Store(v)
	return n
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.root.Store(newNode(true, &view[V]{slots: &slots[V]{}}))
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return int(t.size.Load()) }

// Restarts returns the cumulative number of optimistic restarts, an
// observability hook for contention experiments.
func (t *Tree[V]) Restarts() uint64 { return t.restarts.Load() }

// descend is the tree's one optimistic root-to-leaf traversal. It returns the
// leaf covering key (nil = leftmost) or, with below set, the leaf holding the
// keys immediately below key (nil = +∞, the rightmost leaf): at each inner
// node that is the child left of the first separator >= key. v is the leaf's
// view at version ver, and the leaf was the right one for key at that
// version; conflicts restart from the root inside descend, each counted in
// Restarts. fence, tracked only with below set, is the rightmost separator
// passed on the way down, an exclusive upper bound for every key left of this
// leaf; nil means child 0 was taken at every level and nothing exists left of
// it (a separator is never the empty key: it had a smaller key beside it in
// the node it split).
//
// Every node visit polls ctx (ctx may be nil), so the descent is preemptible
// between any two nodes.
func (t *Tree[V]) descend(ctx *pcontext.Context, key []byte, below bool) (n *node[V], v *view[V], ver uint64, fence []byte) {
	for ; ; t.restarts.Add(1) {
		// The root pointer is re-checked after sampling the version: root
		// growth latches the old root before replacing the pointer, so a
		// version sampled unlatched while the pointer is still current is
		// invalidated by any later split of that node.
		n = t.root.Load()
		var ok bool
		if ver, ok = n.readLock(); !ok || t.root.Load() != n {
			continue
		}
		fence = nil
		for ok {
			ctx.Poll()
			v = n.view.Load()
			if n.leaf {
				if n.readUnlock(ver) {
					return n, v, ver, fence
				}
				break
			}
			idx := 0 // nil key, covering: the leftmost child
			if key != nil {
				var eq bool
				if idx, eq = v.search(key); eq && !below {
					idx++ // child i covers key(i-1) <= k < key(i)
				}
			} else if below {
				idx = v.n
			}
			if below && idx > 0 {
				fence = v.key(idx - 1)
			}
			// v is immutable, so child is a live node whatever happened to n
			// since; whether it is still the *right* node is what the coupled
			// validation decides: n must be unchanged after the child's
			// version is sampled, or a split in between could have moved key
			// to a sibling this descent would never visit.
			child := v.child(idx)
			cver, cok := child.readLock()
			ok = cok && n.readUnlock(ver)
			n, ver = child, cver
		}
	}
}

// Get returns the value stored under key. ctx may be nil; when set, the
// traversal polls it at every node, making lookups preemptible.
func (t *Tree[V]) Get(ctx *pcontext.Context, key []byte) (V, bool) {
	_, v, _, _ := t.descend(ctx, key, false)
	if idx, eq := v.search(key); eq {
		return v.value(idx), true
	}
	var zero V
	return zero, false
}

// Insert stores value under key, replacing any existing value. It reports
// whether the key was newly inserted (false = replaced). The key is copied.
func (t *Tree[V]) Insert(ctx *pcontext.Context, key []byte, value V) bool {
	_, inserted := t.put(ctx, key, value, true)
	return inserted
}

// GetOrInsert returns the value stored under key, inserting value and
// returning it when the key is absent. inserted reports which happened.
// The operation is atomic with respect to concurrent GetOrInsert/Insert on
// the same key: exactly one caller inserts.
func (t *Tree[V]) GetOrInsert(ctx *pcontext.Context, key []byte, value V) (actual V, inserted bool) {
	return t.put(ctx, key, value, false)
}

// put stores value under key. An existing key has its value replaced when
// replace is set and is otherwise left untouched and returned.
func (t *Tree[V]) put(ctx *pcontext.Context, key []byte, value V, replace bool) (actual V, inserted bool) {
	var owned []byte // the tree's copy of key, made at most once
	for {
		n, v, ver, _ := t.descend(ctx, key, false)
		idx, eq := v.search(key)
		if eq && !replace {
			return v.value(idx), false
		}
		if !eq && v.n == maxKeys {
			// No room: split, then find the leaf again. The split path never
			// inserts, so this loop holds the only leaf-insert code.
			t.split(ctx, key)
			continue
		}
		if eq {
			owned = v.key(idx)
		} else if owned == nil {
			owned = append([]byte(nil), key...)
		}
		if n.update(ctx, ver, func() *view[V] {
			if eq {
				v = v.without(idx) // the new value needs a slot of its own
			}
			return v.with(idx, owned, value, nil)
		}) {
			if !eq {
				t.size.Add(1)
			}
			return value, !eq
		}
		t.restarts.Add(1)
	}
}

// split makes room for key: it descends from the root taking write latches
// and splits every full node on the way down (preemptive splits guarantee the
// parent always has room for the separator), holding at most a parent and two
// of its children latched. The whole descent is one non-preemptible region
// because latches are held across it. It is the tree's only structure
// modification and knows nothing of the insert that asked for it; if other
// writers made room first it changes nothing.
func (t *Tree[V]) split(ctx *pcontext.Context, key []byte) {
	pcontext.NonPreemptible(ctx, func() {
		n := t.root.Load()
		n.writeLock()
		if t.root.Load() != n {
			// Lost a race with a concurrent root growth; the caller retries.
			n.writeUnlock()
			return
		}
		// Grow the tree if the root itself is full. The new root is latched
		// *before* it is published so no other writer can slip between the
		// publication and the split. Only the holder of the root's latch
		// replaces the root pointer, so a plain store suffices.
		if n.view.Load().n == maxKeys {
			newRoot := newNode(false, &view[V]{slots: &slots[V]{}, link: n})
			newRoot.version.Store(lockedBit)
			t.root.Store(newRoot)
			splitChild(newRoot, 0)
			n.writeUnlock()
			n = newRoot
		}
		for !n.leaf {
			v := n.view.Load()
			idx, eq := v.search(key)
			if eq {
				idx++
			}
			child := v.child(idx)
			child.writeLock()
			if child.view.Load().n == maxKeys {
				splitChild(n, idx)
				// The separator moved up; enter the half that covers key.
				if v = n.view.Load(); bytes.Compare(key, v.key(idx)) >= 0 {
					right := v.child(idx + 1)
					right.writeLock()
					child.writeUnlock()
					child = right
				}
			}
			n.writeUnlock()
			n = child
		}
		n.writeUnlock()
	})
}

// splitChild splits child i of parent, which is full, in two, hoisting the
// separator into parent. The caller holds both latches and releases them,
// which is what makes optimistic readers of either node restart; the new
// right sibling is created unlatched. The left half keeps the node's storage,
// now all used up, so its next insert compacts it.
func splitChild[V any](parent *node[V], i int) {
	pv := parent.view.Load()
	child := pv.child(i)
	cv := child.view.Load()
	mid := cv.n / 2
	sep := cv.key(mid)
	left := cv.clone()
	left.n = mid
	var right *view[V]
	if child.leaf {
		// Leaf split: right keeps entries [mid, n), separator is its first key.
		right = cv.compact(mid, cv.n)
		right.link = cv.link
	} else {
		// Inner split: the separator moves up, right keeps entries (mid, n)
		// and, leftmost, the child that was right of the separator.
		right = cv.compact(mid+1, cv.n)
		right.link = cv.child(mid + 1)
	}
	rn := newNode(child.leaf, right)
	if child.leaf {
		left.link = rn
	}
	child.view.Store(left)
	var zero V
	parent.view.Store(pv.with(i, sep, zero, rn))
}

// Delete removes key, reporting whether it was present. Leaves are allowed
// to underflow (no rebalancing): deletion marks are cheap and the MVCC layer
// above already retires most data via version GC, so classic merge logic
// buys little and costs latch complexity. Nodes therefore never leave the
// tree, which is what lets scans follow sibling links without validation.
func (t *Tree[V]) Delete(ctx *pcontext.Context, key []byte) bool {
	for {
		n, v, ver, _ := t.descend(ctx, key, false)
		idx, eq := v.search(key)
		if !eq {
			return false
		}
		if n.update(ctx, ver, func() *view[V] { return v.without(idx) }) {
			t.size.Add(-1)
			return true
		}
		t.restarts.Add(1)
	}
}

// ScanFunc receives each key/value in order; returning false stops the scan.
// The callback runs with no latches held and may itself poll, yield or be
// preempted — keys passed to it are owned by the tree and must not be
// modified or retained across calls.
type ScanFunc[V any] func(key []byte, value V) bool

// Scan visits all entries with from <= key < to in ascending order (nil `to`
// means unbounded). The snapshot is per-leaf: each leaf contributes the one
// immutable view it had when the scan reached it, so a scan observes every
// key that existed for the whole scan and may or may not observe concurrent
// insertions — the standard guarantee for latch-free range scans under
// snapshot-isolated MVCC (version visibility is resolved above us).
//
// Only the first leaf needs the validated descent. After that the scan
// follows sibling links with a single atomic load per leaf and cannot
// conflict: a leaf's lower bound never changes (splits move the upper half to
// a new right sibling, and no node is ever unlinked), so the sibling a view
// names always begins where that view ended.
func (t *Tree[V]) Scan(ctx *pcontext.Context, from, to []byte, fn ScanFunc[V]) {
	_, v, _, _ := t.descend(ctx, from, false)
	lo := 0
	if from != nil {
		lo, _ = v.search(from)
	}
	for {
		ctx.Poll()
		if ctx.Err() != nil {
			// Lifecycle canceled or past deadline: abandon the scan at the
			// leaf boundary; the caller observes ctx.Err itself.
			return
		}
		hi := v.n
		if to != nil {
			hi, _ = v.search(to)
		}
		// Emit latch-free: the callback may poll, yield or be preempted.
		for i := lo; i < hi; i++ {
			if !fn(v.key(i), v.value(i)) {
				return
			}
		}
		if hi < v.n || v.link == nil {
			return
		}
		v, lo = v.link.view.Load(), 0
	}
}

// Min returns the smallest key and its value.
func (t *Tree[V]) Min(ctx *pcontext.Context) (key []byte, value V, ok bool) {
	t.Scan(ctx, nil, nil, func(k []byte, v V) bool {
		key, value, ok = append([]byte(nil), k...), v, true
		return false
	})
	return
}

// Max returns the largest key and its value.
func (t *Tree[V]) Max(ctx *pcontext.Context) (key []byte, value V, ok bool) {
	t.ScanDesc(ctx, nil, nil, func(k []byte, v V) bool {
		key, value, ok = append([]byte(nil), k...), v, true
		return false
	})
	return
}

// ScanDesc visits all entries with from <= key < to in DESCENDING key order
// (nil bounds are open). Leaves are singly linked, so each leaf transition
// costs one root-to-leaf descent; point "newest first" lookups (e.g. the
// latest order for a customer) touch one or two leaves. Snapshot semantics
// match Scan: one immutable view per leaf, emitted latch-free.
func (t *Tree[V]) ScanDesc(ctx *pcontext.Context, from, to []byte, fn ScanFunc[V]) {
	upper := to // exclusive moving bound; nil = +∞
	for {
		ctx.Poll()
		if ctx.Err() != nil {
			return // see Scan: unwind at the leaf boundary when canceled
		}
		_, v, _, fence := t.descend(ctx, upper, true)
		lo, hi := 0, v.n
		if upper != nil {
			hi, _ = v.search(upper)
		}
		if from != nil {
			lo, _ = v.search(from)
		}
		for i := hi - 1; i >= lo; i-- {
			if !fn(v.key(i), v.value(i)) {
				return
			}
		}
		if lo > 0 || fence == nil {
			// A key below from sits in this leaf, or nothing lies left of it.
			return
		}
		// Continue strictly below the smallest key just emitted or, when the
		// leaf had nothing under the bound, left of the separator that
		// guarded it. Both are the tree's own immutable keys.
		upper = fence
		if lo < hi {
			upper = v.key(lo)
		}
	}
}
