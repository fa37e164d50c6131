package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"preemptdb/internal/sched"
	"preemptdb/internal/tpcc"
	"preemptdb/internal/tpch"
)

// tinyOptions keeps unit-test runs fast; the real figures use defaults.
func tinyOptions() Options {
	return Options{
		Workers:  1,
		Duration: 300 * time.Millisecond,
		TPCC:     tpcc.ScaleConfig{Warehouses: 1, Districts: 2, Customers: 20, Items: 200},
		TPCH:     tpch.ScaleConfig{Parts: 800, Suppliers: 40},
		Out:      io.Discard,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers < 1 || o.HiQueueSize != 4 || o.LoQueueSize != 1 ||
		o.YieldInterval != 10000 || o.StarvationThreshold != 100 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.HiBatchPerInterval != o.Workers*2 {
		t.Fatalf("batch default: %d", o.HiBatchPerInterval)
	}
	if o.TPCC.Warehouses != o.Workers {
		t.Fatal("warehouses must default to worker count")
	}
}

func TestFixtureLoadsBothSchemas(t *testing.T) {
	f, err := NewFixture(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.TPCC.Scale().Warehouses != 1 || f.TPCH.Scale().Parts != 800 {
		t.Fatal("fixture scales wrong")
	}
	// Both clients must be runnable against the shared engine.
	if _, err := f.TPCH.Q2(nil, tpch.Q2Params{Size: 1, TypeSuffix: "TIN", Region: "ASIA"}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunMixedProducesData(t *testing.T) {
	f, err := NewFixture(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := f.RunMixed(MixedConfig{Policy: sched.PolicyPreempt})
	if r.Policy != "PreemptDB" {
		t.Fatalf("policy = %q", r.Policy)
	}
	if r.NewOrder.Count == 0 && r.Payment.Count == 0 {
		t.Fatal("no high-priority transactions completed")
	}
	if r.Q2.Count == 0 {
		t.Fatal("no Q2 completed")
	}
	if r.InterruptsSent == 0 {
		t.Fatal("no interrupts under PolicyPreempt")
	}
	if r.NewOrderTPS <= 0 && r.PaymentTPS <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestRunMixedWaitPolicySendsNoInterrupts(t *testing.T) {
	f, err := NewFixture(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := f.RunMixed(MixedConfig{Policy: sched.PolicyWait})
	if r.InterruptsSent != 0 {
		t.Fatalf("Wait sent %d interrupts", r.InterruptsSent)
	}
}

func TestUintrLatencyMicrobench(t *testing.T) {
	res, err := UintrLatency(tinyOptions(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries != 500 {
		t.Fatalf("deliveries = %d", res.Deliveries)
	}
	if res.MeanNanos <= 0 || res.MeanNanos > float64(100*time.Millisecond) {
		t.Fatalf("implausible mean delivery latency %v ns", res.MeanNanos)
	}
}

func TestContextSwitchMicrobench(t *testing.T) {
	res, err := ContextSwitch(tinyOptions(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundTrips != 20000 {
		t.Fatalf("round trips = %d", res.RoundTrips)
	}
	if res.MeanRoundTrip <= 0 || res.MeanRoundTrip > time.Millisecond {
		t.Fatalf("implausible switch cost %v", res.MeanRoundTrip)
	}
}

func TestFig8Overhead(t *testing.T) {
	opt := tinyOptions()
	res, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Both configurations made progress. The overhead itself (the paper
	// reports ~1.7%) is a throughput ratio from one short pair of windows —
	// not something a tier-1 test can bound; it belongs to a driver with a
	// noise protocol.
	if res.BaselineTPS <= 0 || res.WithUintrTPS <= 0 {
		t.Fatalf("throughputs: %+v", res)
	}
}

func TestFig1TableOutput(t *testing.T) {
	opt := tinyOptions()
	var sb strings.Builder
	opt.Out = &sb
	rs, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	out := sb.String()
	for _, want := range []string{"Wait", "Cooperative", "PreemptDB", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCtxRandPerContext(t *testing.T) {
	r1 := ctxRand(nil)
	r2 := ctxRand(nil)
	if r1 == r2 {
		t.Fatal("nil-context rands must be distinct")
	}
}

func TestSortedPolicies(t *testing.T) {
	m := map[string][]Fig13Point{"b": nil, "a": nil}
	got := SortedPolicies(m)
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("got %v", got)
	}
}
