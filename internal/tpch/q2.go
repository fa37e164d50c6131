package tpch

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"strings"

	"preemptdb/internal/engine"
	"preemptdb/internal/keys"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
	"preemptdb/internal/sched"
)

// Q2Params are the substitution parameters of TPC-H Q2.
type Q2Params struct {
	Size       uint32 // p_size = Size
	TypeSuffix string // p_type LIKE '%TypeSuffix'
	Region     string // r_name = Region
}

// RandomQ2Params draws spec-style parameters.
func RandomQ2Params(r *rng.Rand) Q2Params {
	return Q2Params{
		Size:       uint32(r.IntRange(1, 50)),
		TypeSuffix: typeSyllable3[r.Intn(len(typeSyllable3))],
		Region:     regionNames[r.Intn(NumRegions)],
	}
}

// Q2Row is one result row of Q2.
type Q2Row struct {
	AcctBal  int64
	SuppName string
	Nation   string
	PartKey  uint32
	Mfgr     string
	Cost     int64
}

// Client runs TPC-H queries against a loaded engine.
type Client struct {
	e   *engine.Engine
	cfg ScaleConfig

	regions, nations, suppliers, parts, partsupp *engine.Table
}

// NewClient binds a query client to a loaded engine.
func NewClient(e *engine.Engine, cfg ScaleConfig) *Client {
	return &Client{
		e: e, cfg: cfg.withDefaults(),
		regions:   e.MustTable(TabRegion),
		nations:   e.MustTable(TabNation),
		suppliers: e.MustTable(TabSupplier),
		parts:     e.MustTable(TabPart),
		partsupp:  e.MustTable(TabPartSupp),
	}
}

// Scale returns the loaded scale configuration.
func (c *Client) Scale() ScaleConfig { return c.cfg }

// Q2 runs the minimum-cost supplier query as one read-only snapshot
// transaction. Every record access polls the transaction context, so the
// whole query — scan, joins, nested subquery — is preemptible at record
// granularity. yieldEvery > 0 places a handcrafted cooperative yield point
// after every yieldEvery nested query blocks (the paper's Cooperative
// (Handcrafted) baseline, §6.3); 0 disables it.
func (c *Client) Q2(ctx *pcontext.Context, p Q2Params, yieldEvery int) ([]Q2Row, error) {
	tx := c.e.Begin(ctx)
	defer tx.Abort()

	// Resolve the region key and the set of nations inside it.
	regionKey := uint32(0)
	found := false
	if err := tx.Scan(c.regions, nil, nil, func(_, row []byte) bool {
		if r := RegionRow(row); string(r.Name()) == p.Region {
			regionKey = r.Key()
			found = true
		}
		return !found
	}); err != nil {
		return nil, err
	}
	if !found {
		return nil, engine.ErrNotFound
	}

	// Outer scan over PART with the size/type predicate, nested min-supplycost
	// block per qualifying part, all on row views — nothing is copied out of a
	// row until the result is cut.
	var (
		cands        []q2Cand
		part         PartRow
		first        int // cands[first:] are the current part's min-cost suppliers
		nestedErr    error
		kb           [20]byte // scratch for the nested block's keys
		nestedBlocks int
	)
	nested := func(_, psRow []byte) bool {
		ps := PartSuppRow(psRow)
		supp, err := tx.Get(c.suppliers, keys.Uint32(kb[16:16], ps.SuppKey()))
		var nat []byte
		if err == nil {
			nat, err = tx.Get(c.nations, keys.Uint32(kb[16:16], SupplierRow(supp).NationKey()))
		}
		if err != nil {
			if errors.Is(err, engine.ErrNotFound) {
				return true // no join partner
			}
			nestedErr = err // cancel or deadline: unwind, keep nothing
			return false
		}
		if NationRow(nat).RegionKey() != regionKey {
			return true
		}
		cost := ps.SupplyCost()
		if len(cands) > first && cost != cands[first].cost {
			if cost > cands[first].cost {
				return true
			}
			cands = cands[:first] // new minimum
		}
		cands = append(cands, q2Cand{part: part, supp: supp, nat: nat, cost: cost})
		return true
	}
	err := tx.Scan(c.parts, nil, nil, func(_, row []byte) bool {
		part = row
		if part.Size() != p.Size || !part.TypeHasSuffix(p.TypeSuffix) {
			return true
		}
		nestedBlocks++
		first = len(cands)
		from := keys.Uint32(keys.Uint32(kb[:0], part.Key()), 0)
		to := keys.Uint32(keys.Uint32(kb[8:8], part.Key()+1), 0)
		err := tx.Scan(c.partsupp, from, to, nested)
		if nestedErr = cmp.Or(nestedErr, err); nestedErr != nil {
			return false
		}

		// Handcrafted yield point, placed exactly where the paper put it:
		// right outside the nested query block, taken every yieldEvery blocks.
		if yieldEvery > 0 && nestedBlocks%yieldEvery == 0 {
			sched.Yield(tx.Context())
		}
		return true
	})
	if err = cmp.Or(nestedErr, err); err != nil {
		return nil, err
	}

	slices.SortFunc(cands, q2Cand.compare)
	if len(cands) > 100 {
		cands = cands[:100]
	}
	// The result owns its strings: no engine memory leaves the transaction.
	out := slices.Grow([]Q2Row(nil), len(cands)) // nil when empty, like Q2Reference
	for _, cd := range cands {
		out = append(out, Q2Row{
			AcctBal: cd.supp.AcctBal(), SuppName: string(cd.supp.Name()),
			Nation: string(cd.nat.Name()), PartKey: cd.part.Key(), Mfgr: string(cd.part.Mfgr()),
			Cost: cd.cost,
		})
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

// q2Cand is one min-cost (part, supplier) pair of Q2, held as views of the
// joined rows until the result is sorted and cut.
type q2Cand struct {
	part PartRow
	supp SupplierRow
	nat  NationRow
	cost int64
}

// compare is the spec ordering: s_acctbal desc, n_name, s_name, p_partkey.
func (a q2Cand) compare(b q2Cand) int {
	return cmp.Or(
		cmp.Compare(b.supp.AcctBal(), a.supp.AcctBal()),
		bytes.Compare(a.nat.Name(), b.nat.Name()),
		bytes.Compare(a.supp.Name(), b.supp.Name()),
		cmp.Compare(a.part.Key(), b.part.Key()))
}

// compare is q2Cand.compare over materialised rows (Q2Reference).
func (a Q2Row) compare(b Q2Row) int {
	return cmp.Or(
		cmp.Compare(b.AcctBal, a.AcctBal),
		strings.Compare(a.Nation, b.Nation),
		strings.Compare(a.SuppName, b.SuppName),
		cmp.Compare(a.PartKey, b.PartKey))
}

// Q2Reference recomputes Q2 with a naive full-materialization plan, used by
// tests to validate the transactional implementation.
func (c *Client) Q2Reference(p Q2Params) []Q2Row {
	tx := c.e.Begin(nil)
	defer tx.Abort()

	nationsByKey := map[uint32]Nation{}
	tx.Scan(c.nations, nil, nil, func(_, row []byte) bool {
		n := DecodeNation(row)
		nationsByKey[n.Key] = n
		return true
	})
	regionByName := map[string]uint32{}
	tx.Scan(c.regions, nil, nil, func(_, row []byte) bool {
		r := DecodeRegion(row)
		regionByName[r.Name] = r.Key
		return true
	})
	suppsByKey := map[uint32]Supplier{}
	tx.Scan(c.suppliers, nil, nil, func(_, row []byte) bool {
		s := DecodeSupplier(row)
		suppsByKey[s.Key] = s
		return true
	})
	psByPart := map[uint32][]PartSupp{}
	tx.Scan(c.partsupp, nil, nil, func(_, row []byte) bool {
		ps := DecodePartSupp(row)
		psByPart[ps.PartKey] = append(psByPart[ps.PartKey], ps)
		return true
	})

	rk := regionByName[p.Region]
	var out []Q2Row
	tx.Scan(c.parts, nil, nil, func(_, row []byte) bool {
		part := DecodePart(row)
		if part.Size != p.Size || !strings.HasSuffix(part.Type, p.TypeSuffix) {
			return true
		}
		minCost := int64(-1)
		for _, ps := range psByPart[part.Key] {
			s := suppsByKey[ps.SuppKey]
			if nationsByKey[s.NationKey].RegionKey != rk {
				continue
			}
			if minCost < 0 || ps.SupplyCost < minCost {
				minCost = ps.SupplyCost
			}
		}
		for _, ps := range psByPart[part.Key] {
			s := suppsByKey[ps.SuppKey]
			n := nationsByKey[s.NationKey]
			if n.RegionKey == rk && ps.SupplyCost == minCost {
				out = append(out, Q2Row{
					AcctBal: s.AcctBal, SuppName: s.Name, Nation: n.Name,
					PartKey: part.Key, Mfgr: part.Mfgr, Cost: ps.SupplyCost,
				})
			}
		}
		return true
	})
	slices.SortFunc(out, Q2Row.compare)
	if len(out) > 100 {
		out = out[:100]
	}
	return out
}
