package admission

import (
	"sync"
	"testing"
	"time"

	"preemptdb/internal/clock"
)

func TestUnlimited(t *testing.T) {
	c := New(0, 1, 0)
	for i := 0; i < 1000; i++ {
		if !c.Admit() {
			t.Fatal("unlimited controller rejected")
		}
	}
	if !c.AdmitDeadline(0) {
		t.Fatal("unlimited controller rejected a request without a deadline")
	}
	if c.InFlight() != 0 || c.DeadlineRejected() != 0 {
		t.Fatalf("unlimited controller tracked in-flight %d, deadline sheds %d", c.InFlight(), c.DeadlineRejected())
	}
}

func TestBurstThenRateLimit(t *testing.T) {
	c := New(10, 5, 0) // 10/s, burst 5
	admitted := 0
	for i := 0; i < 20; i++ {
		if c.Admit() {
			admitted++
		}
	}
	if admitted < 5 || admitted > 7 {
		t.Fatalf("instant burst admitted %d, want ~5", admitted)
	}
	// After 300ms, ~3 more tokens accrue.
	time.Sleep(300 * time.Millisecond)
	more := 0
	for i := 0; i < 20; i++ {
		if c.Admit() {
			more++
		}
	}
	if more < 1 || more > 6 {
		t.Fatalf("refill admitted %d, want ~3", more)
	}
}

func TestInFlightCap(t *testing.T) {
	c := New(0, 1, 3)
	for i := 0; i < 3; i++ {
		if !c.Admit() {
			t.Fatalf("admit %d failed", i)
		}
	}
	if c.Admit() {
		t.Fatal("admitted above cap")
	}
	if c.InFlight() != 3 {
		t.Fatalf("inflight = %d", c.InFlight())
	}
	c.Release()
	if !c.Admit() {
		t.Fatal("admit after release failed")
	}
	if c.Admit() {
		t.Fatal("admitted above cap after the release was used")
	}
	if c.InFlight() != 3 {
		t.Fatalf("a rejected admit leaked an in-flight slot: %d", c.InFlight())
	}
}

func TestReleaseWithoutAdmitPanics(t *testing.T) {
	c := New(0, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Release()
}

func TestConcurrentAdmitRelease(t *testing.T) {
	c := New(0, 1, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if c.Admit() {
					if n := c.InFlight(); n < 1 || n > 8 {
						t.Errorf("inflight out of bounds: %d", n)
						return
					}
					c.Release()
				}
			}
		}()
	}
	wg.Wait()
	if c.InFlight() != 0 {
		t.Fatalf("leaked inflight: %d", c.InFlight())
	}
}

func TestRateAccuracy(t *testing.T) {
	c := New(1000, 1, 0) // 1000/s
	start := time.Now()
	admitted := 0
	for time.Since(start) < 300*time.Millisecond {
		if c.Admit() {
			admitted++
		}
	}
	// Expect ~300 admitted over 300ms at 1000/s; allow wide CI noise.
	if admitted < 100 || admitted > 600 {
		t.Fatalf("admitted %d in 300ms at 1000/s", admitted)
	}
}

func TestQueueDelayEWMA(t *testing.T) {
	c := New(0, 1, 0)
	if c.QueueDelayEstimate() != 0 {
		t.Fatalf("fresh estimate = %d", c.QueueDelayEstimate())
	}
	c.ObserveQueueDelay(1000)
	if got := c.QueueDelayEstimate(); got != 1000 {
		t.Fatalf("first sample must seed the estimate, got %d", got)
	}
	c.ObserveQueueDelay(2000)
	// 1000 + 0.2*(2000-1000) = 1200
	if got := c.QueueDelayEstimate(); got != 1200 {
		t.Fatalf("EWMA after second sample = %d, want 1200", got)
	}
	c.ObserveQueueDelay(-50) // negative observations clamp to zero
	if got := c.QueueDelayEstimate(); got >= 1200 || got < 0 {
		t.Fatalf("EWMA after clamped sample = %d", got)
	}
}

func TestAdmitDeadline(t *testing.T) {
	c := New(0, 1, 0)
	// No deadline: always admitted.
	if !c.AdmitDeadline(0) {
		t.Fatal("no-deadline request rejected")
	}
	// Feasible deadline far in the future.
	if !c.AdmitDeadline(clock.Nanos() + int64(time.Hour)) {
		t.Fatal("feasible deadline rejected")
	}
	// Teach the controller a 10ms queue delay; a 1ms-out deadline is then a
	// certain miss.
	for i := 0; i < 50; i++ {
		c.ObserveQueueDelay(int64(10 * time.Millisecond))
	}
	if c.AdmitDeadline(clock.Nanos() + int64(time.Millisecond)) {
		t.Fatal("certain-miss deadline admitted")
	}
	if got := c.DeadlineRejected(); got != 1 {
		t.Fatalf("DeadlineRejected = %d", got)
	}
	// A deadline beyond the estimate still gets in.
	if !c.AdmitDeadline(clock.Nanos() + int64(time.Second)) {
		t.Fatal("slack deadline rejected")
	}
}

func TestConcurrentObserveQueueDelay(t *testing.T) {
	c := New(0, 1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.ObserveQueueDelay(1000)
			}
		}()
	}
	wg.Wait()
	if got := c.QueueDelayEstimate(); got != 1000 {
		t.Fatalf("constant observations must converge exactly, got %d", got)
	}
}
