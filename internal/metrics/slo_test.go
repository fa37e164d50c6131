package metrics

import (
	"sync"
	"testing"
)

// TestSLOBreachDetection: only PhaseTotal samples above the class watermark
// count as breaches, the hook fires inline with the breaching value, and
// clearing the SLO disarms detection.
func TestSLOBreachDetection(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var hooked []int64
	r.SetBreachHook(func(c Class, v int64) {
		if c != ClassHi {
			t.Errorf("hook class = %v, want hi", c)
		}
		mu.Lock()
		hooked = append(hooked, v)
		mu.Unlock()
	})

	// No SLO configured: nothing breaches.
	r.Observe(ClassHi, PhaseTotal, 0, 1e9)
	if n := r.SLOBreaches(ClassHi); n != 0 {
		t.Fatalf("breaches with no SLO: %d", n)
	}

	r.SetSLO(ClassHi, 1000)
	if got := r.SLO(ClassHi); got != 1000 {
		t.Fatalf("SLO = %d, want 1000", got)
	}
	r.Observe(ClassHi, PhaseTotal, 0, 999)  // under
	r.Observe(ClassHi, PhaseTotal, 0, 1000) // at: not a breach
	r.Observe(ClassHi, PhaseTotal, 0, 1001) // over
	r.Observe(ClassHi, PhaseExec, 0, 5000)  // wrong phase
	r.Observe(ClassLo, PhaseTotal, 0, 5000) // wrong class (no lo SLO)
	if n := r.SLOBreaches(ClassHi); n != 1 {
		t.Fatalf("hi breaches = %d, want 1", n)
	}
	if n := r.SLOBreaches(ClassLo); n != 0 {
		t.Fatalf("lo breaches = %d, want 0", n)
	}
	mu.Lock()
	if len(hooked) != 1 || hooked[0] != 1001 {
		t.Fatalf("hook saw %v, want [1001]", hooked)
	}
	mu.Unlock()

	// Clearing the hook and the SLO disarms both.
	r.SetBreachHook(nil)
	r.Observe(ClassHi, PhaseTotal, 0, 9999)
	if n := r.SLOBreaches(ClassHi); n != 2 {
		t.Fatalf("breach count without hook = %d, want 2", n)
	}
	r.SetSLO(ClassHi, 0)
	r.Observe(ClassHi, PhaseTotal, 0, 9999)
	if n := r.SLOBreaches(ClassHi); n != 2 {
		t.Fatalf("breach counted after SLO cleared: %d", n)
	}
}
