package index

import (
	"bytes"
	"sort"

	"preemptdb/internal/pcontext"
)

// Range is one half-open key range [From, To) produced by Partition. A nil
// From or To keeps the corresponding bound open, matching Scan's convention.
type Range struct {
	From, To []byte
}

// partitionMaxAttempts bounds how many whole-sample restarts Partition takes
// before falling back to a single range: under heavy structural churn a
// degenerate (unpartitioned) answer is still correct, just unbalanced.
const partitionMaxAttempts = 8

// partitionMaxFrontier caps how many nodes of one level the sampler reads.
// The sample only needs enough separators for a few dozen morsels; reading an
// entire wide level (or the leaf level) would turn a hint computation into a
// scan.
const partitionMaxFrontier = 64

// Partition splits [from, to) into up to n balanced half-open ranges by
// sampling separator keys from the upper B+tree levels, for fan-out to
// parallel scan morsels. The sampler takes no latch: it reads each inner node
// the way the descent does (sample the version, load the view, validate),
// and a node caught latched or changing restarts the whole sample (counted in
// PartitionRestarts). The returned ranges always form an exact contiguous
// cover of [from, to); under churn or on small trees there may be fewer than
// n of them, down to the single input range.
//
// Separators are only balance hints: a key sampled from an inner node is a
// valid range bound whether or not it still exists as a live row, so the
// cover is correct even when the sampled node has since split. Like Scan's
// emitted keys, the returned bounds reference the tree's immutable key
// allocations and must not be modified.
func (t *Tree[V]) Partition(ctx *pcontext.Context, from, to []byte, n int) []Range {
	single := []Range{{From: from, To: to}}
	if n <= 1 {
		return single
	}
	var seps [][]byte
	for attempt := 0; ; attempt++ {
		var ok bool
		seps, ok = t.sampleSeparators(ctx, from, to, n-1)
		if ok {
			break
		}
		t.partitionRestarts.Add(1)
		if attempt >= partitionMaxAttempts {
			return single
		}
	}
	if len(seps) == 0 {
		return single
	}
	sort.Slice(seps, func(i, j int) bool { return bytes.Compare(seps[i], seps[j]) < 0 })
	seps = compactKeys(seps)
	// Pick n-1 evenly spaced separators from the sorted candidate set.
	if len(seps) > n-1 {
		picked := make([][]byte, 0, n-1)
		for i := 1; i < n; i++ {
			picked = append(picked, seps[i*len(seps)/n])
		}
		seps = compactKeys(picked)
	}
	ranges := make([]Range, 0, len(seps)+1)
	lo := from
	for _, s := range seps {
		ranges = append(ranges, Range{From: lo, To: s})
		lo = s
	}
	return append(ranges, Range{From: lo, To: to})
}

// compactKeys removes adjacent duplicates from a sorted key list in place.
func compactKeys(keys [][]byte) [][]byte {
	out := keys[:0]
	for _, k := range keys {
		if len(out) == 0 || !bytes.Equal(out[len(out)-1], k) {
			out = append(out, k)
		}
	}
	return out
}

// sampleSeparators performs one level-by-level walk of the inner levels,
// collecting keys strictly inside (from, to) and stopping as soon as it has
// `want` candidates, the frontier grows past the sampling budget, or the next
// level down is the leaves: one separator per leaf is as fine as a morsel
// needs to be. A false result requests a restart (a sampled node was latched
// or changed while it was read, or the root moved under us).
func (t *Tree[V]) sampleSeparators(ctx *pcontext.Context, from, to []byte, want int) ([][]byte, bool) {
	var seps [][]byte
	root := t.root.Load()
	frontier := []*node[V]{root}
	for len(seps) < want && len(frontier) > 0 && len(frontier) <= partitionMaxFrontier && !frontier[0].leaf {
		var next []*node[V]
		for _, n := range frontier {
			ctx.Poll()
			ver, ok := n.readLock()
			v := n.view.Load()
			if !ok || !n.readUnlock(ver) || t.root.Load() != root {
				return nil, false
			}
			// Keys strictly inside (from, to), and the children whose
			// subtrees intersect [from, to).
			lo, hi := 0, v.n
			if from != nil {
				var eq bool
				if lo, eq = v.search(from); eq {
					lo++
				}
			}
			if to != nil {
				hi, _ = v.search(to)
			}
			for i := lo; i <= hi; i++ { // empty when from >= to
				if i < hi {
					seps = append(seps, v.key(i))
				}
				next = append(next, v.child(i))
			}
		}
		frontier = next
	}
	return seps, true
}
