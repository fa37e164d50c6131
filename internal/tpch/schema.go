// Package tpch implements the TPC-H subset PreemptDB's evaluation needs:
// the region/nation/supplier/part/partsupp tables and query Q2 (minimum-cost
// supplier), the long-running, read-only, low-priority transaction in the
// paper's mixed workload (§6.1). Q2's nested-subquery structure is also what
// makes the Cooperative (Handcrafted) baseline possible: a yield point "right
// outside the nested query block" (§6.3).
package tpch

import (
	"preemptdb/internal/engine"
	"preemptdb/internal/keys"
	"preemptdb/internal/row"
)

// Table names.
const (
	TabRegion   = "tpch.region"
	TabNation   = "tpch.nation"
	TabSupplier = "tpch.supplier"
	TabPart     = "tpch.part"
	TabPartSupp = "tpch.partsupp"
)

// Region is one region row (5 in TPC-H).
type Region struct {
	Key     uint32
	Name    string
	Comment string
}

// Nation is one nation row (25 in TPC-H).
type Nation struct {
	Key       uint32
	Name      string
	RegionKey uint32
	Comment   string
}

// Supplier is one supplier row.
type Supplier struct {
	Key       uint32
	Name      string
	Address   string
	NationKey uint32
	Phone     string
	AcctBal   int64 // cents
	Comment   string
}

// Part is one part row.
type Part struct {
	Key         uint32
	Name        string
	Mfgr        string
	Brand       string
	Type        string
	Size        uint32
	Container   string
	RetailPrice int64 // cents
	Comment     string
}

// PartSupp links a part to a supplier with cost and availability.
type PartSupp struct {
	PartKey    uint32
	SuppKey    uint32
	AvailQty   uint32
	SupplyCost int64 // cents
	Comment    string
}

// Key builders.

// RegionKey returns the region primary key.
func RegionKey(r uint32) []byte { return keys.Uint32(nil, r) }

// NationKey returns the nation primary key.
func NationKey(n uint32) []byte { return keys.Uint32(nil, n) }

// SupplierKey returns the supplier primary key.
func SupplierKey(s uint32) []byte { return keys.Uint32(nil, s) }

// PartKey returns the part primary key.
func PartKey(p uint32) []byte { return keys.Uint32(nil, p) }

// PartSuppKey returns the partsupp primary key (clustered by part).
func PartSuppKey(p, s uint32) []byte { return keys.Uint32(keys.Uint32(nil, p), s) }

// Row views. Every table's encoded row is a fixed-width prefix followed by
// its strings (package row; DESIGN.md "Row layout and views"), and the const
// block above each view is the one place that knows its layout. A view reads
// the stored bytes in place: its string accessors alias the row, which is a
// committed version's payload — never mutated once installed (ROADMAP 1(d)),
// so a view stays valid for as long as it is referenced — but engine memory
// must not leave the transaction: copy (string(v.Name())) what outlives it.
// DecodeX materialises a whole view; X.Encode is its inverse.

// region: key u32 | name comment
const (
	regionKey, regionFixed    = 0, 4
	regionName, regionComment = 0, 1
)

// RegionRow is a view of an encoded region row.
type RegionRow []byte

func (r RegionRow) Key() uint32     { return row.U32(r, regionKey) }
func (r RegionRow) Name() []byte    { return row.Str(r, regionFixed, regionName) }
func (r RegionRow) Comment() []byte { return row.Str(r, regionFixed, regionComment) }

// Encode serializes the region row.
func (r *Region) Encode() []byte {
	b := row.New(regionFixed, r.Name, r.Comment)
	row.Put32(b, regionKey, r.Key)
	return b
}

// DecodeRegion deserializes a region row.
func DecodeRegion(b []byte) Region {
	r := RegionRow(b)
	return Region{Key: r.Key(), Name: string(r.Name()), Comment: string(r.Comment())}
}

// nation: key u32 | regionkey u32 | name comment
const (
	nationKey, nationRegionKey, nationFixed = 0, 4, 8
	nationName, nationComment               = 0, 1
)

// NationRow is a view of an encoded nation row.
type NationRow []byte

func (r NationRow) Key() uint32       { return row.U32(r, nationKey) }
func (r NationRow) RegionKey() uint32 { return row.U32(r, nationRegionKey) }
func (r NationRow) Name() []byte      { return row.Str(r, nationFixed, nationName) }
func (r NationRow) Comment() []byte   { return row.Str(r, nationFixed, nationComment) }

// Encode serializes the nation row.
func (n *Nation) Encode() []byte {
	b := row.New(nationFixed, n.Name, n.Comment)
	row.Put32(b, nationKey, n.Key)
	row.Put32(b, nationRegionKey, n.RegionKey)
	return b
}

// DecodeNation deserializes a nation row.
func DecodeNation(b []byte) Nation {
	r := NationRow(b)
	return Nation{Key: r.Key(), Name: string(r.Name()), RegionKey: r.RegionKey(), Comment: string(r.Comment())}
}

// supplier: key u32 | nationkey u32 | acctbal i64 | name address phone comment
const (
	suppKey, suppNationKey, suppAcctBal, suppFixed = 0, 4, 8, 16
	suppName, suppAddress, suppPhone, suppComment  = 0, 1, 2, 3
)

// SupplierRow is a view of an encoded supplier row.
type SupplierRow []byte

func (r SupplierRow) Key() uint32       { return row.U32(r, suppKey) }
func (r SupplierRow) NationKey() uint32 { return row.U32(r, suppNationKey) }
func (r SupplierRow) AcctBal() int64    { return row.I64(r, suppAcctBal) }
func (r SupplierRow) Name() []byte      { return row.Str(r, suppFixed, suppName) }
func (r SupplierRow) Address() []byte   { return row.Str(r, suppFixed, suppAddress) }
func (r SupplierRow) Phone() []byte     { return row.Str(r, suppFixed, suppPhone) }
func (r SupplierRow) Comment() []byte   { return row.Str(r, suppFixed, suppComment) }

// Encode serializes the supplier row.
func (s *Supplier) Encode() []byte {
	b := row.New(suppFixed, s.Name, s.Address, s.Phone, s.Comment)
	row.Put32(b, suppKey, s.Key)
	row.Put32(b, suppNationKey, s.NationKey)
	row.Put64(b, suppAcctBal, uint64(s.AcctBal))
	return b
}

// DecodeSupplier deserializes a supplier row.
func DecodeSupplier(b []byte) Supplier {
	r := SupplierRow(b)
	return Supplier{Key: r.Key(), Name: string(r.Name()), Address: string(r.Address()),
		NationKey: r.NationKey(), Phone: string(r.Phone()), AcctBal: r.AcctBal(),
		Comment: string(r.Comment())}
}

// part: key u32 | size u32 | retailprice i64 | name mfgr brand type container comment
const (
	partKey, partSize, partRetailPrice, partFixed                       = 0, 4, 8, 16
	partName, partMfgr, partBrand, partType, partContainer, partComment = 0, 1, 2, 3, 4, 5
)

// PartRow is a view of an encoded part row.
type PartRow []byte

func (r PartRow) Key() uint32        { return row.U32(r, partKey) }
func (r PartRow) Size() uint32       { return row.U32(r, partSize) }
func (r PartRow) RetailPrice() int64 { return row.I64(r, partRetailPrice) }
func (r PartRow) Name() []byte       { return row.Str(r, partFixed, partName) }
func (r PartRow) Mfgr() []byte       { return row.Str(r, partFixed, partMfgr) }
func (r PartRow) Brand() []byte      { return row.Str(r, partFixed, partBrand) }
func (r PartRow) Type() []byte       { return row.Str(r, partFixed, partType) }
func (r PartRow) Container() []byte  { return row.Str(r, partFixed, partContainer) }
func (r PartRow) Comment() []byte    { return row.Str(r, partFixed, partComment) }

// TypeHasSuffix reports p_type LIKE '%suffix' without copying the type.
func (r PartRow) TypeHasSuffix(suffix string) bool {
	t := r.Type()
	return len(t) >= len(suffix) && string(t[len(t)-len(suffix):]) == suffix
}

// Encode serializes the part row.
func (p *Part) Encode() []byte {
	b := row.New(partFixed, p.Name, p.Mfgr, p.Brand, p.Type, p.Container, p.Comment)
	row.Put32(b, partKey, p.Key)
	row.Put32(b, partSize, p.Size)
	row.Put64(b, partRetailPrice, uint64(p.RetailPrice))
	return b
}

// DecodePart deserializes a part row.
func DecodePart(b []byte) Part {
	r := PartRow(b)
	return Part{Key: r.Key(), Name: string(r.Name()), Mfgr: string(r.Mfgr()), Brand: string(r.Brand()),
		Type: string(r.Type()), Size: r.Size(), Container: string(r.Container()),
		RetailPrice: r.RetailPrice(), Comment: string(r.Comment())}
}

// partsupp: partkey u32 | suppkey u32 | availqty u32 | supplycost i64 | comment
const (
	psPartKey, psSuppKey, psAvailQty, psSupplyCost, psFixed = 0, 4, 8, 12, 20
	psComment                                               = 0
)

// PartSuppRow is a view of an encoded partsupp row.
type PartSuppRow []byte

func (r PartSuppRow) PartKey() uint32   { return row.U32(r, psPartKey) }
func (r PartSuppRow) SuppKey() uint32   { return row.U32(r, psSuppKey) }
func (r PartSuppRow) AvailQty() uint32  { return row.U32(r, psAvailQty) }
func (r PartSuppRow) SupplyCost() int64 { return row.I64(r, psSupplyCost) }
func (r PartSuppRow) Comment() []byte   { return row.Str(r, psFixed, psComment) }

// Encode serializes the partsupp row.
func (ps *PartSupp) Encode() []byte {
	b := row.New(psFixed, ps.Comment)
	row.Put32(b, psPartKey, ps.PartKey)
	row.Put32(b, psSuppKey, ps.SuppKey)
	row.Put32(b, psAvailQty, ps.AvailQty)
	row.Put64(b, psSupplyCost, uint64(ps.SupplyCost))
	return b
}

// DecodePartSupp deserializes a partsupp row.
func DecodePartSupp(b []byte) PartSupp {
	r := PartSuppRow(b)
	return PartSupp{PartKey: r.PartKey(), SuppKey: r.SuppKey(), AvailQty: r.AvailQty(),
		SupplyCost: r.SupplyCost(), Comment: string(r.Comment())}
}

// CreateSchema creates the TPC-H subset tables on e.
func CreateSchema(e *engine.Engine) {
	e.CreateTable(TabRegion)
	e.CreateTable(TabNation)
	e.CreateTable(TabSupplier)
	e.CreateTable(TabPart)
	e.CreateTable(TabPartSupp)
}
