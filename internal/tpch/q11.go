package tpch

import (
	"cmp"
	"slices"

	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
)

// Q11 — important stock identification. A second long-running, read-only
// analytical transaction over the subset schema (beyond the paper's Q2),
// useful for mixed workloads that need variety in their low-priority class:
//
//	select ps_partkey, sum(ps_supplycost * ps_availqty) as value
//	from partsupp, supplier, nation
//	where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
//	  and n_name = '[NATION]'
//	group by ps_partkey
//	having value > [FRACTION] * (total over the same nation)
//	order by value desc
//
// Unlike Q2's scan-plus-nested-subquery shape, Q11 is a full aggregation
// over PARTSUPP with a two-pass HAVING — a different preemption profile
// (one long scan, then a long in-memory group-by walk).

// Q11Params are the substitution parameters.
type Q11Params struct {
	Nation   string
	Fraction float64 // spec: 0.0001 / SF
}

// RandomQ11Params draws spec-style parameters. The fraction is scaled so a
// handful of groups qualify at our reduced scale.
func RandomQ11Params(r *rng.Rand) Q11Params {
	return Q11Params{
		Nation:   nationNames[r.Intn(NumNations)],
		Fraction: 0.001,
	}
}

// Q11Row is one result group.
type Q11Row struct {
	PartKey uint32
	Value   int64 // Σ supplycost × availqty, in cents
}

// compare orders by value desc, then part key.
func (a Q11Row) compare(b Q11Row) int {
	return cmp.Or(cmp.Compare(b.Value, a.Value), cmp.Compare(a.PartKey, b.PartKey))
}

// Q11 runs the query as one snapshot transaction; every record access polls
// the context, so the aggregation is preemptible throughout.
func (c *Client) Q11(ctx *pcontext.Context, p Q11Params) ([]Q11Row, error) {
	tx := c.e.Begin(ctx)
	defer tx.Abort()

	// Resolve the nation key.
	nationKey := uint32(0)
	found := false
	if err := tx.Scan(c.nations, nil, nil, func(_, row []byte) bool {
		if n := NationRow(row); string(n.Name()) == p.Nation {
			nationKey = n.Key()
			found = true
		}
		return !found
	}); err != nil {
		return nil, err
	}
	if !found {
		return nil, engine.ErrNotFound
	}

	// Suppliers in the nation (small set; build once).
	inNation := make(map[uint32]bool)
	if err := tx.Scan(c.suppliers, nil, nil, func(_, row []byte) bool {
		if s := SupplierRow(row); s.NationKey() == nationKey {
			inNation[s.Key()] = true
		}
		return true
	}); err != nil {
		return nil, err
	}

	// Pass 1: aggregate value per part and the national total.
	values := make(map[uint32]int64)
	var total int64
	if err := tx.Scan(c.partsupp, nil, nil, func(_, row []byte) bool {
		ps := PartSuppRow(row)
		if !inNation[ps.SuppKey()] {
			return true
		}
		v := ps.SupplyCost() * int64(ps.AvailQty())
		values[ps.PartKey()] += v
		total += v
		return true
	}); err != nil {
		return nil, err
	}

	// Pass 2: HAVING + ORDER BY value desc. The group walk also polls so a
	// large group-by table cannot create an unpreemptible region.
	threshold := int64(p.Fraction * float64(total))
	out := make([]Q11Row, 0, len(values))
	for pk, v := range values {
		ctx.Poll()
		if v > threshold {
			out = append(out, Q11Row{PartKey: pk, Value: v})
		}
	}
	slices.SortFunc(out, Q11Row.compare)
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

// Q11Reference recomputes Q11 with fully materialized maps, for tests.
func (c *Client) Q11Reference(p Q11Params) []Q11Row {
	tx := c.e.Begin(nil)
	defer tx.Abort()

	var nationKey uint32
	tx.Scan(c.nations, nil, nil, func(_, row []byte) bool {
		n := DecodeNation(row)
		if n.Name == p.Nation {
			nationKey = n.Key
			return false
		}
		return true
	})
	supps := map[uint32]bool{}
	tx.Scan(c.suppliers, nil, nil, func(_, row []byte) bool {
		s := DecodeSupplier(row)
		if s.NationKey == nationKey {
			supps[s.Key] = true
		}
		return true
	})
	values := map[uint32]int64{}
	var total int64
	tx.Scan(c.partsupp, nil, nil, func(_, row []byte) bool {
		ps := DecodePartSupp(row)
		if supps[ps.SuppKey] {
			v := ps.SupplyCost * int64(ps.AvailQty)
			values[ps.PartKey] += v
			total += v
		}
		return true
	})
	threshold := int64(p.Fraction * float64(total))
	var out []Q11Row
	for pk, v := range values {
		if v > threshold {
			out = append(out, Q11Row{PartKey: pk, Value: v})
		}
	}
	slices.SortFunc(out, Q11Row.compare)
	return out
}
