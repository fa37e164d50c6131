package bench

import (
	"preemptdb/internal/pcontext"
	"preemptdb/internal/tpch"

	"os"
	"testing"
	"time"
)

func TestSmokeFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke test")
	}
	opt := Options{
		Workers:  0,
		Duration: 2 * time.Second,
		Out:      os.Stderr,
	}
	rs, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		t.Logf("%s: NO n=%d schedP50=%v Q2 n=%d noTPS=%.0f q2TPS=%.1f intr=%d drop=%d",
			r.Policy, r.NewOrderSched.Count, time.Duration(r.NewOrderSched.P50), r.Q2.Count, r.NewOrderTPS, r.Q2TPS, r.InterruptsSent, r.DroppedHi)
	}
}

// TestSmokeTraceExport: the trace experiment's per-core rings render to a
// valid Chrome trace-event document on disk.
func TestSmokeTraceExport(t *testing.T) {
	opt := Options{
		Workers:  1,
		Duration: 100 * time.Millisecond,
		TPCH:     tpch.ScaleConfig{Parts: 4000, Suppliers: 100},
		Out:      os.Stderr,
	}
	events, cores, err := Trace(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(cores) == 0 {
		t.Fatalf("trace empty: %d events, %d cores", len(events), len(cores))
	}
	path := t.TempDir() + "/trace.json"
	if err := WriteChromeTrace(path, cores); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcontext.ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
}
