package tpcc

import (
	"errors"
	"testing"

	"preemptdb/internal/engine"
	"preemptdb/internal/rng"
)

// ledgerScale is what htap_mix loads per worker.
var ledgerScale = ScaleConfig{Warehouses: 1, Districts: 4, Customers: 64, Items: 2000, Seed: 42}

func loadedAt(t testing.TB, scale ScaleConfig) *Client {
	t.Helper()
	e := engine.New(engine.Config{})
	CreateSchema(e)
	cfg, err := Load(e, scale)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return NewClient(e, cfg)
}

func BenchmarkNewOrder(b *testing.B) {
	c := loadedAt(b, ledgerScale)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.NewOrder(nil, r, 1); err != nil && !errors.Is(err, ErrUserAbort) {
			b.Fatal(err)
		}
	}
}

func BenchmarkPayment(b *testing.B) {
	c := loadedAt(b, ledgerScale)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Payment(nil, r, 1); err != nil {
			b.Fatal(err)
		}
	}
}
