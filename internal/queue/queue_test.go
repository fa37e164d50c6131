package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 63: 64, 64: 64, 65: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("new queue must be empty")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push to full succeeded")
	}
	if q.Len() != 4 || q.Free() != 0 {
		t.Fatalf("len=%d free=%d", q.Len(), q.Free())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](2)
	for round := 0; round < 1000; round++ {
		if !q.Push(round) {
			t.Fatalf("push failed at round %d", round)
		}
		v, ok := q.Pop()
		if !ok || v != round {
			t.Fatalf("round %d: got (%d,%v)", round, v, ok)
		}
	}
}

func TestSPSCConcurrentFIFO(t *testing.T) {
	q := NewSPSC[int](64)
	const n = 200000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if q.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	next := 0
	for next < n {
		v, ok := q.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Fatalf("out of order: got %d want %d", v, next)
		}
		next++
	}
	wg.Wait()
}

func TestSPSCReleasesReferences(t *testing.T) {
	q := NewSPSC[*int](2)
	x := new(int)
	q.Push(x)
	q.Pop()
	if q.buf[0].v != nil {
		t.Fatal("popped slot still references value")
	}
}

func TestMPMCBasic(t *testing.T) {
	q := NewMPMC[string](4)
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if !q.Push("a") || !q.Push("b") {
		t.Fatal("pushes failed")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok := q.Pop()
	if !ok || v != "a" {
		t.Fatalf("pop = (%q,%v)", v, ok)
	}
}

func TestMPMCFull(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		q := NewMPMC[int](capacity)
		if q.Cap() != capacity {
			t.Fatalf("capacity %d: Cap = %d", capacity, q.Cap())
		}
		for i := 0; i < capacity; i++ {
			if !q.Push(i) {
				t.Fatalf("capacity %d: fill failed at %d", capacity, i)
			}
		}
		if q.Push(99) {
			t.Fatalf("capacity %d: push to full succeeded", capacity)
		}
		if v, ok := q.Pop(); !ok || v != 0 {
			t.Fatalf("capacity %d: pop = (%d,%v)", capacity, v, ok)
		}
		if !q.Push(99) {
			t.Fatalf("capacity %d: push after pop failed", capacity)
		}
	}
}

func TestMPMCConcurrentSum(t *testing.T) {
	// Capacity 1 is the scheduler's default low-priority queue.
	for _, capacity := range []int{1, 128} {
		testMPMCConcurrentSum(t, capacity)
	}
}

func testMPMCConcurrentSum(t *testing.T, capacity int) {
	q := NewMPMC[int](capacity)
	const producers, perProducer = 4, 20000
	var produced, consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := base*perProducer + i
				for !q.Push(v) {
					runtime.Gosched()
				}
				produced.Add(int64(v))
			}
		}(p)
	}
	var cwg sync.WaitGroup
	var got atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if v, ok := q.Pop(); ok {
					got.Add(int64(v))
					consumed.Add(1)
					continue
				}
				select {
				case <-stop:
					// Drain any residue then exit.
					for {
						v, ok := q.Pop()
						if !ok {
							return
						}
						got.Add(int64(v))
						consumed.Add(1)
					}
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	cwg.Wait()
	if consumed.Load() != producers*perProducer {
		t.Fatalf("consumed %d of %d", consumed.Load(), producers*perProducer)
	}
	if got.Load() != produced.Load() {
		t.Fatalf("sum mismatch: %d vs %d", got.Load(), produced.Load())
	}
}

func TestMPMCPerProducerOrder(t *testing.T) {
	// With a single consumer, each producer's elements must arrive in its
	// own program order.
	q := NewMPMC[[2]int](64)
	const producers, per = 3, 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for !q.Push([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	seen := make([]int, producers)
	donep := make(chan struct{})
	go func() { wg.Wait(); close(donep) }()
	received := 0
	for received < producers*per {
		v, ok := q.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		{
			p, i := v[0], v[1]
			if i != seen[p] {
				t.Errorf("producer %d out of order: got %d want %d", p, i, seen[p])
				return
			}
			seen[p]++
			received++
		}
	}
	<-donep
}

func TestQuickSPSCSequential(t *testing.T) {
	// Property: any interleaving of pushes then pops behaves like a FIFO.
	err := quick.Check(func(vals []uint16) bool {
		q := NewSPSC[uint16](len(vals) + 1)
		for _, v := range vals {
			if !q.Push(v) {
				return false
			}
		}
		for _, want := range vals {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

func BenchmarkMPMCPushPop(b *testing.B) {
	q := NewMPMC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
