//go:build !race

package tpch

import (
	"testing"

	"preemptdb/internal/rng"
)

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only exact without it.

// allocsAndRows runs query once per parameter set of a fixed seed and returns
// the mean allocations per run and the mean result rows per run.
func allocsAndRows(t *testing.T, parts int, query func(c *Client, r *rng.Rand) int) (allocs, rows float64) {
	t.Helper()
	c := loadedAt(t, ScaleConfig{Parts: parts, Suppliers: 40, Seed: 5})
	const runs = 20
	r := rng.New(7)
	total := 0
	allocs = testing.AllocsPerRun(runs, func() { total += query(c, r) })
	return allocs, float64(total) / (runs + 1) // AllocsPerRun makes one warm-up call
}

// TestQ2AllocsScaleWithResultNotScan: Q2 reads PART, PARTSUPP, SUPPLIER and
// NATION rows in place, so scanning ten times the parts may cost only what
// the extra result rows cost (three strings each, plus slice growth: 20 → 56
// allocs for 1 → 12 rows) — not an allocation per scanned row (the parent commit copied six
// strings out of every PART row and grew 10×).
func TestQ2AllocsScaleWithResultNotScan(t *testing.T) {
	q2 := func(c *Client, r *rng.Rand) int {
		rows, err := c.Q2(nil, RandomQ2Params(r), 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	a1, r1 := allocsAndRows(t, 600, q2)
	a2, r2 := allocsAndRows(t, 6000, q2)
	if limit := a1 + 4*(r2-r1) + 8; a2 > limit {
		t.Fatalf("Q2 allocs/run: %.0f at 600 parts (%.1f rows), %.0f at 6000 parts (%.1f rows), want <= %.0f",
			a1, r1, a2, r2, limit)
	}
}

// TestQ11Allocs: likewise for Q11 — its group-by map and result slice grow
// with the groups (13 → 19 allocs for 73 → 209 rows), nothing grows with the
// PARTSUPP rows scanned (the parent commit copied each row's comment).
func TestQ11Allocs(t *testing.T) {
	q11 := func(c *Client, r *rng.Rand) int {
		rows, err := c.Q11(nil, RandomQ11Params(r))
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	a1, r1 := allocsAndRows(t, 600, q11)
	a2, r2 := allocsAndRows(t, 6000, q11)
	if limit := a1 + 0.1*(r2-r1) + 8; a2 > limit {
		t.Fatalf("Q11 allocs/run: %.0f at 600 parts (%.1f rows), %.0f at 6000 parts (%.1f rows), want <= %.0f",
			a1, r1, a2, r2, limit)
	}
}
