package tpch

import (
	"fmt"

	"preemptdb/internal/engine"
	"preemptdb/internal/rng"
)

// Standard TPC-H dictionary fragments used by the generator and Q2's
// predicate parameters.
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps each nation index to its region, per the spec.
	nationRegion = []uint32{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
)

// NumRegions is the TPC-H region count.
const NumRegions = 5

// NumNations is the TPC-H nation count.
const NumNations = 25

// ScaleConfig sizes the TPC-H subset. The defaults give a Q2 lasting tens of
// milliseconds on one core — long enough to dominate a worker, as in the
// paper's mixed workload — without the multi-gigabyte footprint of SF-1.
type ScaleConfig struct {
	Parts        int // default 8000
	Suppliers    int // default 400
	SuppsPerPart int // partsupp entries per part; spec 4
	Seed         uint64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Parts == 0 {
		c.Parts = 8000
	}
	if c.Suppliers == 0 {
		c.Suppliers = 400
	}
	if c.SuppsPerPart == 0 {
		c.SuppsPerPart = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x71325f68 // "q2_h"
	}
	return c
}

// Load populates the TPC-H subset tables.
func Load(e *engine.Engine, cfg ScaleConfig) (ScaleConfig, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)

	tx := e.Begin(nil)
	regions := e.MustTable(TabRegion)
	for i, name := range regionNames {
		reg := Region{Key: uint32(i), Name: name, Comment: r.AString(20, 40)}
		if err := tx.Insert(regions, RegionKey(reg.Key), reg.Encode()); err != nil {
			return cfg, err
		}
	}
	nations := e.MustTable(TabNation)
	for i, name := range nationNames {
		n := Nation{Key: uint32(i), Name: name, RegionKey: nationRegion[i], Comment: r.AString(20, 40)}
		if err := tx.Insert(nations, NationKey(n.Key), n.Encode()); err != nil {
			return cfg, err
		}
	}
	suppliers := e.MustTable(TabSupplier)
	for s := 1; s <= cfg.Suppliers; s++ {
		sup := Supplier{
			Key:       uint32(s),
			Name:      fmt.Sprintf("Supplier#%09d", s),
			Address:   r.AString(10, 30),
			NationKey: uint32(r.Intn(NumNations)),
			Phone:     r.NString(15, 15),
			AcctBal:   int64(r.IntRange(-99999, 999999)),
			Comment:   r.AString(25, 60),
		}
		if err := tx.Insert(suppliers, SupplierKey(sup.Key), sup.Encode()); err != nil {
			return cfg, err
		}
	}
	if err := tx.Commit(); err != nil {
		return cfg, err
	}

	parts := e.MustTable(TabPart)
	partsupp := e.MustTable(TabPartSupp)
	tx = e.Begin(nil)
	for p := 1; p <= cfg.Parts; p++ {
		part := Part{
			Key:   uint32(p),
			Name:  r.AString(15, 30),
			Mfgr:  fmt.Sprintf("Manufacturer#%d", r.IntRange(1, 5)),
			Brand: fmt.Sprintf("Brand#%d%d", r.IntRange(1, 5), r.IntRange(1, 5)),
			Type: typeSyllable1[r.Intn(len(typeSyllable1))] + " " +
				typeSyllable2[r.Intn(len(typeSyllable2))] + " " +
				typeSyllable3[r.Intn(len(typeSyllable3))],
			Size:        uint32(r.IntRange(1, 50)),
			Container:   r.AString(8, 10),
			RetailPrice: int64(r.IntRange(90000, 200000)),
			Comment:     r.AString(5, 22),
		}
		if err := tx.Insert(parts, PartKey(part.Key), part.Encode()); err != nil {
			return cfg, err
		}
		for j := 0; j < cfg.SuppsPerPart; j++ {
			// Spec-style spreading: suppliers for a part are spaced across
			// the supplier population so every region is usually represented.
			s := uint32((p+j*(cfg.Suppliers/cfg.SuppsPerPart+1))%cfg.Suppliers) + 1
			ps := PartSupp{
				PartKey: uint32(p), SuppKey: s,
				AvailQty:   uint32(r.IntRange(1, 9999)),
				SupplyCost: int64(r.IntRange(100, 100000)),
				Comment:    r.AString(10, 30),
			}
			if err := tx.Insert(partsupp, PartSuppKey(uint32(p), s), ps.Encode()); err != nil {
				return cfg, err
			}
		}
		// Commit in chunks so loading does not build one giant write set.
		if p%2000 == 0 {
			if err := tx.Commit(); err != nil {
				return cfg, err
			}
			tx = e.Begin(nil)
		}
	}
	return cfg, tx.Commit()
}
