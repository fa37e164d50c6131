package sched

import (
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"preemptdb/internal/pcontext"
)

// awaitOrDump waits for ch; after ten seconds it dumps every goroutine and
// fails. It detects a lost wake-up, which shows as a hang, and is no
// performance bound.
func awaitOrDump(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatal(msg)
	}
}

// TestIdleWorkerWakesOnSubmit: a request submitted to a parked worker runs.
// Each round waits until the worker has parked again, so every submit meets
// the park path; a submit path that pushes without posting the wake token
// hangs here.
func TestIdleWorkerWakesOnSubmit(t *testing.T) {
	const rounds = 200
	for _, policy := range []Policy{PolicyPreempt, PolicyWait} {
		for _, high := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/high=%v", policy, high), func(t *testing.T) {
				s := New(Config{Policy: policy, Workers: 1})
				s.Start()
				defer s.Stop()
				w := s.Workers()[0]
				var parked uint64
				for i := 0; i < rounds; i++ {
					waitFor(t, func() bool { return w.Parks() > parked }, 10*time.Second,
						fmt.Sprintf("round %d: worker never parked", i))
					parked = w.Parks()
					done := make(chan struct{})
					req := &Request{
						Work:   func(*pcontext.Context) error { return nil },
						OnDone: func(*Request) { close(done) },
					}
					go func() {
						if high {
							if s.SubmitHighBatch([]*Request{req}) != 1 {
								t.Error("high request refused")
							}
						} else if !s.SubmitLow(0, req) {
							t.Error("low request refused")
						}
					}()
					awaitOrDump(t, done, fmt.Sprintf("round %d: parked worker never woke", i))
				}
				if got := w.ExecutedHigh() + w.ExecutedLow(); got != rounds {
					t.Fatalf("executed %d of %d requests", got, rounds)
				}
			})
		}
	}
}

// TestStopWhileParked: Stop returns when the worker is parked with nothing
// queued.
func TestStopWhileParked(t *testing.T) {
	for i := 0; i < 50; i++ {
		s := New(Config{Policy: PolicyPreempt, Workers: 1})
		s.Start()
		w := s.Workers()[0]
		waitFor(t, func() bool { return w.Parks() > 0 }, 10*time.Second, "worker never parked")
		stopped := make(chan struct{})
		go func() {
			s.Stop()
			close(stopped)
		}()
		awaitOrDump(t, stopped, fmt.Sprintf("iteration %d: Stop hung on a parked worker", i))
	}
}

// BenchmarkIdleWake prices submit → start on a worker that has sat idle for
// 5 ms. The submitter blocks on a channel, as a closed-loop client does, so
// no other goroutine is runnable while the worker waits for work. ns/op is
// the mean submit → done round trip; wake-p50-us and wake-mean-us are the
// median and mean submit → StartedAt.
func BenchmarkIdleWake(b *testing.B) {
	s := New(Config{Policy: PolicyPreempt, Workers: 1})
	s.Start()
	defer s.Stop()
	woke := make(chan struct{}, 1)
	waits := make([]int64, 0, b.N)
	var sum int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		time.Sleep(5 * time.Millisecond)
		b.StartTimer()
		req := &Request{
			Work:   func(*pcontext.Context) error { return nil },
			OnDone: func(*Request) { woke <- struct{}{} },
		}
		if s.SubmitHighBatch([]*Request{req}) != 1 {
			b.Fatal("request refused")
		}
		<-woke
		waits = append(waits, req.SchedulingLatency())
		sum += req.SchedulingLatency()
	}
	slices.Sort(waits)
	b.ReportMetric(float64(waits[len(waits)/2])/1e3, "wake-p50-us")
	b.ReportMetric(float64(sum)/float64(b.N)/1e3, "wake-mean-us")
}
