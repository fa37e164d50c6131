//go:build !race

package tpcc

import (
	"errors"
	"testing"

	"preemptdb/internal/rng"
)

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only exact without it.

// TestNewOrderAllocs pins New-Order's allocations at the ledger's scale. What
// is left is one allocation per row written (the patched copy of a stock or
// district row, the exact-size encoding of an inserted one) plus what the
// engine allocates per write (version, record, index entry, key copy); the
// parent commit decoded and re-encoded every row it touched and read 399.
func TestNewOrderAllocs(t *testing.T) {
	c := loadedAt(t, ledgerScale)
	r := rng.New(1)
	avg := testing.AllocsPerRun(2000, func() {
		if err := c.NewOrder(nil, r, 1); err != nil && !errors.Is(err, ErrUserAbort) {
			t.Fatal(err)
		}
	})
	if avg > 110 {
		t.Fatalf("NewOrder allocates %.1f allocs/op, want <= 110", avg)
	}
}

// TestPaymentAllocs pins Payment likewise (parent commit: 70).
func TestPaymentAllocs(t *testing.T) {
	c := loadedAt(t, ledgerScale)
	r := rng.New(2)
	avg := testing.AllocsPerRun(2000, func() {
		if err := c.Payment(nil, r, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 26 {
		t.Fatalf("Payment allocates %.1f allocs/op, want <= 26", avg)
	}
}
