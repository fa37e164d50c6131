package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := tr.Get(nil, key(1)); ok {
		t.Fatal("get on empty tree succeeded")
	}
	if tr.Delete(nil, key(1)) {
		t.Fatal("delete on empty tree succeeded")
	}
	count := 0
	tr.Scan(nil, nil, nil, func(k []byte, v int) bool { count++; return true })
	if count != 0 {
		t.Fatal("scan on empty tree emitted entries")
	}
}

func TestInsertGet(t *testing.T) {
	tr := New[int]()
	const n = 10000 // forces several levels of splits
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if !tr.Insert(nil, key(i), i*2) {
			t.Fatalf("insert %d reported replace", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(nil, key(i))
		if !ok || v != i*2 {
			t.Fatalf("get %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := tr.Get(nil, key(n+5)); ok {
		t.Fatal("found missing key")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[string]()
	if !tr.Insert(nil, key(1), "a") {
		t.Fatal("first insert must report new")
	}
	if tr.Insert(nil, key(1), "b") {
		t.Fatal("second insert must report replace")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	v, _ := tr.Get(nil, key(1))
	if v != "b" {
		t.Fatalf("value = %q", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(nil, key(i), i)
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(nil, key(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(nil, key(0)) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != n/2 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(nil, key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get %d = %v, want %v", i, ok, want)
		}
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	tr := New[int]()
	const n = 5000
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		tr.Insert(nil, key(i), i)
	}
	// Full scan: ascending, complete.
	var got []int
	tr.Scan(nil, nil, nil, func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != n {
		t.Fatalf("scan emitted %d of %d", len(got), n)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("scan not in ascending order")
	}
	// Bounded scan [100, 200).
	got = got[:0]
	tr.Scan(nil, key(100), key(200), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("bounded scan wrong: len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	count := 0
	tr.Scan(nil, nil, nil, func(k []byte, v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop emitted %d", count)
	}
}

func TestScanFromMissingKey(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i += 10 {
		tr.Insert(nil, key(i), i)
	}
	var got []int
	tr.Scan(nil, key(15), key(45), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	want := []int{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMin(t *testing.T) {
	tr := New[int]()
	if _, _, ok := tr.Min(nil); ok {
		t.Fatal("min on empty tree")
	}
	for i := 100; i > 0; i-- {
		tr.Insert(nil, key(i), i)
	}
	k, v, ok := tr.Min(nil)
	if !ok || v != 1 || !bytes.Equal(k, key(1)) {
		t.Fatalf("min = (%x,%d,%v)", k, v, ok)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New[string]()
	keys := []string{"", "a", "aa", "ab", "b", "ba", "z", "zz", "zzz"}
	for _, k := range keys {
		tr.Insert(nil, []byte(k), k)
	}
	var got []string
	tr.Scan(nil, nil, nil, func(k []byte, v string) bool {
		got = append(got, v)
		return true
	})
	if !sort.StringsAreSorted(got) || len(got) != len(keys) {
		t.Fatalf("got %v", got)
	}
}

func TestKeyIsCopied(t *testing.T) {
	tr := New[int]()
	k := []byte("mutable")
	tr.Insert(nil, k, 1)
	k[0] = 'X'
	if _, ok := tr.Get(nil, []byte("mutable")); !ok {
		t.Fatal("tree must copy inserted keys")
	}
}

// Every point operation through one sequential specification: spec (in
// history_test.go) says what an operation returns and leaves behind for one
// key, apply runs it on the tree. The history checker uses the same pair.
func TestQuickAgainstReferenceMap(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
		Val  int32
	}
	err := quick.Check(func(ops []op) bool {
		tr := New[int64]()
		ref := map[uint16]int64{}
		for _, o := range ops {
			state, present := ref[o.Key]
			if !present {
				state = absent
			}
			h := histOp{kind: opKind(o.Kind) % numOpKinds, key: int(o.Key), arg: int64(o.Val)}
			h.apply(tr)
			after, out, ok := spec(h.kind, state, h.arg)
			if h.out != out || h.ok != ok {
				return false
			}
			if after == absent {
				delete(ref, o.Key)
			} else {
				ref[o.Key] = after
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(nil, key(int(k)))
			if !ok || got != v {
				return false
			}
		}
		// Scan must visit exactly the reference contents in order.
		var prev []byte
		count := 0
		good := true
		tr.Scan(nil, nil, nil, func(k []byte, v int64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				good = false
				return false
			}
			prev = append(prev[:0], k...)
			count++
			return true
		})
		return good && count == len(ref)
	}, &quick.Config{MaxCount: 60, Values: func(args []reflect.Value, r *rand.Rand) {
		// Enough operations on few enough keys to split leaves and to fill
		// them with dead slots, which quick's default of <= 50 never does.
		ops := make([]op, r.Intn(1500))
		for i := range ops {
			ops[i] = op{uint8(r.Intn(int(numOpKinds))), uint16(r.Intn(300)), r.Int31()}
		}
		args[0] = reflect.ValueOf(ops)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	tr := New[uint64]()
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				tr.Insert(nil, key(k), uint64(k))
			}
		}(w)
	}
	// Concurrent readers continuously verify that any value found matches
	// its key.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rnd.Intn(writers * perWriter)
				if v, ok := tr.Get(nil, key(k)); ok && v != uint64(k) {
					t.Errorf("key %d has value %d", k, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if tr.Len() != writers*perWriter {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < writers*perWriter; i++ {
		if _, ok := tr.Get(nil, key(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestConcurrentScanSeesSortedConsistentData(t *testing.T) {
	tr := New[uint64]()
	// Preload half, then scan while the other half is inserted.
	const n = 20000
	for i := 0; i < n; i += 2 {
		tr.Insert(nil, key(i), uint64(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i += 2 {
			tr.Insert(nil, key(i), uint64(i))
		}
	}()
	for round := 0; round < 20; round++ {
		var prev []byte
		seenPreloaded := 0
		tr.Scan(nil, nil, nil, func(k []byte, v uint64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Error("scan out of order under concurrency")
				return false
			}
			prev = append(prev[:0], k...)
			if binary.BigEndian.Uint64(k) != v {
				t.Errorf("key/value mismatch: %x -> %d", k, v)
				return false
			}
			if v%2 == 0 {
				seenPreloaded++
			}
			return true
		})
		// Every preloaded (even) key existed for the scan's whole lifetime
		// and must be observed.
		if seenPreloaded != n/2 {
			t.Fatalf("scan missed preloaded keys: %d of %d", seenPreloaded, n/2)
		}
	}
	wg.Wait()
}

func TestConcurrentDeleteInsertDisjoint(t *testing.T) {
	tr := New[int]()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insert(nil, key(i), i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n/2; i++ {
			tr.Delete(nil, key(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := n; i < n+n/2; i++ {
			tr.Insert(nil, key(i), i)
		}
	}()
	wg.Wait()
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i := n / 2; i < n+n/2; i++ {
		if _, ok := tr.Get(nil, key(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
}

func TestRestartsCounter(t *testing.T) {
	tr := New[int]()
	tr.Insert(nil, key(1), 1)
	_ = tr.Restarts() // must not panic; contention may or may not have occurred
}

func TestManyDuplicatePrefixKeys(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("prefix/%06d/suffix", i))
		tr.Insert(nil, k, i)
	}
	var got []int
	tr.Scan(nil, []byte("prefix/000100"), []byte("prefix/000200"), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 || got[0] != 100 {
		t.Fatalf("prefix scan: len=%d first=%d", len(got), got[0])
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(nil, key(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(nil, key(i%n))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(nil, key(i), i)
	}
}

func BenchmarkScan100(b *testing.B) {
	tr := New[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(nil, key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 97) % (n - 200)
		cnt := 0
		tr.Scan(nil, key(start), key(start+100), func(k []byte, v int) bool {
			cnt++
			return true
		})
	}
}
