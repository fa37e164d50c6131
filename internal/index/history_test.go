package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// The tree's point operations against one key form a small state machine: the
// key is absent or holds one value. spec is that machine, the sequential
// specification both the quick-check test and the history checker hold the
// tree to; histOp.apply runs the same operation on a real tree and records
// what came back in the same canonical form.

type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opGetOrInsert
	opDelete
	numOpKinds
)

const absent int64 = -1 // the state of a key that is not in the tree

// spec applies one operation to a key in state `state` and returns the state
// after it, and the (out, ok) the tree must report: the value read or stored
// and found / inserted / deleted.
func spec(kind opKind, state, arg int64) (after, out int64, ok bool) {
	switch kind {
	case opGet:
		return state, state, state != absent
	case opInsert:
		return arg, arg, state == absent
	case opGetOrInsert:
		if state == absent {
			return arg, arg, true
		}
		return state, state, false
	default: // opDelete
		return absent, absent, state != absent
	}
}

// histOp is one operation of a history: what was asked, what came back, and
// stamps taken before the call and after the return.
type histOp struct {
	kind     opKind
	key      int
	arg      int64 // the value Insert / GetOrInsert offer; unique per operation
	out      int64
	ok       bool
	inv, ret int64
	worker   int
}

func (o *histOp) apply(tr *Tree[int64]) {
	k := key(o.key)
	switch o.kind {
	case opGet:
		if o.out, o.ok = tr.Get(nil, k); !o.ok {
			o.out = absent
		}
	case opInsert:
		o.out, o.ok = o.arg, tr.Insert(nil, k, o.arg)
	case opGetOrInsert:
		o.out, o.ok = tr.GetOrInsert(nil, k, o.arg)
	default:
		o.out, o.ok = absent, tr.Delete(nil, k)
	}
}

// linearizable reports whether the operations on ONE key, whose state before
// any of them was `initial`, have a total order that respects real time (an
// operation that returned before another was invoked precedes it) and the
// sequential specification. Each worker has at most one operation in flight,
// so a configuration is the key's state plus the set of in-flight operations
// already given their place; the set of reachable configurations is carried
// through the invoke/return events in stamp order and must never run empty.
func linearizable(ops []*histOp, initial int64) (bad *histOp) {
	type event struct {
		stamp int64
		op    *histOp
		ret   bool
	}
	events := make([]event, 0, 2*len(ops))
	for _, o := range ops {
		events = append(events, event{o.inv, o, false}, event{o.ret, o, true})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].stamp < events[j].stamp })

	type config struct {
		state  int64
		placed uint64 // bit w: worker w's in-flight operation already took effect
	}
	inflight := map[int]*histOp{}
	configs := map[config]bool{{state: initial}: true}
	for _, ev := range events {
		if !ev.ret {
			inflight[ev.op.worker] = ev.op
			continue
		}
		// ev.op must have taken effect by now. From every configuration,
		// place in-flight operations in every order the specification
		// allows, and keep the configurations in which ev.op is placed.
		next := map[config]bool{}
		seen := map[config]bool{}
		var explore func(c config)
		explore = func(c config) {
			if seen[c] {
				return
			}
			seen[c] = true
			if c.placed&(1<<ev.op.worker) != 0 {
				next[config{c.state, c.placed &^ (1 << ev.op.worker)}] = true
			}
			for w, o := range inflight {
				if c.placed&(1<<w) != 0 {
					continue
				}
				if after, out, ok := spec(o.kind, c.state, o.arg); out == o.out && ok == o.ok {
					explore(config{after, c.placed | 1<<w})
				}
			}
		}
		for c := range configs {
			explore(c)
		}
		if len(next) == 0 {
			return ev.op
		}
		delete(inflight, ev.op.worker)
		configs = next
	}
	return nil
}

// scanRecord is one Scan or ScanDesc over the whole tree: its stamps and the
// hot keys it emitted.
type scanRecord struct {
	desc     bool
	inv, ret int64
	seen     map[int]bool
}

// TestLinearizableHistory runs random Get / Insert / GetOrInsert / Delete on a
// few hot keys from several goroutines while others grow the tree around
// those keys — three levels deep to begin with, so leaves AND inner nodes
// split under the operations — and while whole-tree Scans and ScanDescs run.
// Every hot key's history must be linearizable; every scan must be strictly
// ordered, must see each key that was present for its whole duration, and
// must see no key that was absent for its whole duration.
func TestLinearizableHistory(t *testing.T) {
	const (
		hot        = 32   // hot key h is id h*stride
		stride     = 1024 // ids in between belong to the fillers
		workers    = 4
		fillers    = 2
		fillerKeys = 6000 // random new ids per filler
		preloaded  = -2   // value of every key loaded before the history starts
	)
	tr := New[int64]()
	nPreloaded := 0
	for id := 4; id < hot*stride; id += 8 {
		tr.Insert(nil, key(id), preloaded)
		nPreloaded++
	}
	for h := 0; h < hot; h += 2 { // every other hot key starts out present
		tr.Insert(nil, key(h*stride), preloaded)
	}
	height, innerBefore := shape(tr)
	if height < 3 {
		t.Fatalf("tree is %d levels deep, want >= 3", height)
	}

	var clock atomic.Int64
	var fillersLeft atomic.Int32
	fillersLeft.Store(fillers)
	var wg sync.WaitGroup
	for f := 0; f < fillers; f++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer fillersLeft.Add(-1)
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < fillerKeys; i++ {
				if id := rnd.Intn(hot * stride); id%stride != 0 && id%8 != 4 {
					tr.Insert(nil, key(id), int64(id))
				}
			}
		}(int64(f))
	}
	histories := make([][]*histOp, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + w)))
			for n := int64(0); fillersLeft.Load() > 0; n++ {
				o := &histOp{
					kind:   opKind(rnd.Intn(int(numOpKinds))),
					key:    rnd.Intn(hot) * stride,
					arg:    n*workers + int64(w), // unique across workers
					worker: w,
				}
				o.inv = clock.Add(1)
				o.apply(tr)
				o.ret = clock.Add(1)
				histories[w] = append(histories[w], o)
			}
		}(w)
	}
	scans := make([][]scanRecord, 2)
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for fillersLeft.Load() > 0 {
				rec := scanRecord{desc: d == 1, seen: map[int]bool{}}
				var prev []byte
				nPre := 0
				visit := func(k []byte, v int64) bool {
					if c := bytes.Compare(prev, k); prev != nil && (c == 0 || (c < 0) == rec.desc) {
						t.Errorf("scan (desc=%v) emitted %x after %x", rec.desc, k, prev)
						return false
					}
					prev = append(prev[:0], k...)
					if id := int(binary.BigEndian.Uint64(k)); id%stride == 0 {
						rec.seen[id] = true
					} else if v == preloaded {
						nPre++
					} else if v != int64(id) {
						t.Errorf("filler key %d carries value %d", id, v)
					}
					return true
				}
				rec.inv = clock.Add(1)
				if rec.desc {
					tr.ScanDesc(nil, nil, nil, visit)
				} else {
					tr.Scan(nil, nil, nil, visit)
				}
				rec.ret = clock.Add(1)
				if nPre != nPreloaded {
					t.Errorf("scan (desc=%v) saw %d of %d keys that were never touched", rec.desc, nPre, nPreloaded)
				}
				scans[d] = append(scans[d], rec)
			}
		}(d)
	}
	wg.Wait()
	_, innerAfter := shape(tr)
	if innerAfter <= innerBefore {
		t.Errorf("no inner node split during the history (%d inner nodes before, %d after)", innerBefore, innerAfter)
	}

	allScans := append(append([]scanRecord(nil), scans[0]...), scans[1]...)
	perKey := map[int][]*histOp{}
	total := 0
	for _, h := range histories {
		for _, o := range h {
			perKey[o.key] = append(perKey[o.key], o)
		}
		total += len(h)
	}
	for h := 0; h < hot; h++ {
		id, initial := h*stride, absent
		if h%2 == 0 {
			initial = preloaded
		}
		ops := perKey[id]
		if bad := linearizable(ops, initial); bad != nil {
			t.Errorf("key %d: history of %d operations is not linearizable at %+v", id, len(ops), *bad)
			continue
		}
		// Every operation shows what the key was right after it took effect.
		// If it returned before a scan began, and no operation that changes
		// that (a successful delete of a present key, a successful insert of
		// an absent one) could have taken effect between its invocation and
		// the scan's end, the key was in that state for the whole scan.
		ops = append(ops, &histOp{kind: opGet, ok: initial != absent}) // the preload, at stamp 0
		for _, sc := range allScans {
			lastDelete, lastInsert := int64(-1), int64(-1) // latest return among those begun before the scan ended
			for _, o := range ops {
				if o.ok && o.inv < sc.ret {
					switch o.kind {
					case opDelete:
						lastDelete = max(lastDelete, o.ret)
					case opInsert, opGetOrInsert:
						lastInsert = max(lastInsert, o.ret)
					}
				}
			}
			saw := sc.seen[id]
			for _, ev := range ops {
				if ev.ret >= sc.inv {
					continue
				}
				present := ev.kind != opDelete && (ev.kind != opGet || ev.ok)
				if present && ev.inv > lastDelete && !saw {
					t.Errorf("scan (desc=%v) over [%d,%d] missed key %d, present throughout by %+v", sc.desc, sc.inv, sc.ret, id, *ev)
				}
				if !present && ev.inv > lastInsert && saw {
					t.Errorf("scan (desc=%v) over [%d,%d] emitted key %d, absent throughout by %+v", sc.desc, sc.inv, sc.ret, id, *ev)
				}
			}
		}
	}
	t.Logf("%d point operations, %d+%d scans, %d -> %d inner nodes", total, len(scans[0]), len(scans[1]), innerBefore, innerAfter)
}

// shape returns the number of levels of tr and how many inner nodes it has.
func shape[V any](tr *Tree[V]) (height, inner int) {
	level := []*node[V]{tr.root.Load()}
	for height = 1; !level[0].leaf; height++ {
		var next []*node[V]
		for _, n := range level {
			v := n.view.Load()
			for i := 0; i <= v.n; i++ {
				next = append(next, v.child(i))
			}
		}
		inner += len(level)
		level = next
	}
	return height, inner
}
