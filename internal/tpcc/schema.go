// Package tpcc implements the TPC-C workload (spec rev 5.11) over the
// PreemptDB storage engine: schema, deterministic loader, and the five
// transaction profiles. NewOrder and Payment serve as the paper's short,
// high-priority transactions (§6.1); the full mix drives the overhead and
// scalability experiments (fig8, fig9).
//
// Monetary amounts are int64 cents throughout so consistency invariants
// (e.g. W_YTD = ΣD_YTD) hold exactly.
package tpcc

import (
	"preemptdb/internal/engine"
	"preemptdb/internal/keys"
	"preemptdb/internal/row"
)

// Table names.
const (
	TabWarehouse = "tpcc.warehouse"
	TabDistrict  = "tpcc.district"
	TabCustomer  = "tpcc.customer"
	TabHistory   = "tpcc.history"
	TabNewOrder  = "tpcc.new_order"
	TabOrders    = "tpcc.orders"
	TabOrderLine = "tpcc.order_line"
	TabItem      = "tpcc.item"
	TabStock     = "tpcc.stock"

	// IdxCustomerByName supports the 60%-by-last-name Payment/OrderStatus
	// path: (w, d, last, first) → customer row.
	IdxCustomerByName = "byname"
	// IdxOrdersByCustomer supports OrderStatus's newest-order lookup:
	// (w, d, c, o) → order row.
	IdxOrdersByCustomer = "bycustomer"
)

// Warehouse is one TPC-C warehouse row.
type Warehouse struct {
	ID               uint32
	Name             string
	Street1, Street2 string
	City, State, Zip string
	Tax              float64
	YTD              int64 // cents
}

// District is one district row.
type District struct {
	ID, WID          uint32
	Name             string
	Street1, Street2 string
	City, State, Zip string
	Tax              float64
	YTD              int64 // cents
	NextOID          uint32
}

// Customer is one customer row.
type Customer struct {
	ID, DID, WID        uint32
	First, Middle, Last string
	Street1, Street2    string
	City, State, Zip    string
	Phone               string
	Since               int64
	Credit              string // "GC" or "BC"
	CreditLim           int64  // cents
	Discount            float64
	Balance             int64 // cents
	YTDPayment          int64 // cents
	PaymentCnt          uint32
	DeliveryCnt         uint32
	Data                string
}

// History is one payment-history row.
type History struct {
	CID, CDID, CWID uint32
	DID, WID        uint32
	Date            int64
	Amount          int64 // cents
	Data            string
}

// NewOrderRow marks an undelivered order.
type NewOrderRow struct {
	OID, DID, WID uint32
}

// Order is one order header row.
type Order struct {
	ID, DID, WID uint32
	CID          uint32
	EntryD       int64
	CarrierID    uint32 // 0 = not delivered
	OLCnt        uint32
	AllLocal     uint32
}

// OrderLine is one order line row.
type OrderLine struct {
	OID, DID, WID uint32
	Number        uint32
	IID           uint32
	SupplyWID     uint32
	DeliveryD     int64
	Quantity      uint32
	Amount        int64 // cents
	DistInfo      string
}

// Item is one catalog item row.
type Item struct {
	ID    uint32
	ImID  uint32
	Name  string
	Price int64 // cents
	Data  string
}

// Stock is one stock row.
type Stock struct {
	IID, WID  uint32
	Quantity  int32
	Dists     [10]string
	YTD       uint64
	OrderCnt  uint32
	RemoteCnt uint32
	Data      string
}

// Key builders (order-preserving composite keys).

// key appends the composite key (parts…) to dst. The named builders below
// allocate theirs; a transaction builds its keys in scratch (see keyBuf).
func key(dst []byte, parts ...uint32) []byte {
	for _, p := range parts {
		dst = keys.Uint32(dst, p)
	}
	return dst
}

// WarehouseKey returns the warehouse primary key.
func WarehouseKey(w uint32) []byte { return key(nil, w) }

// DistrictKey returns the district primary key.
func DistrictKey(w, d uint32) []byte { return key(nil, w, d) }

// CustomerKey returns the customer primary key.
func CustomerKey(w, d, c uint32) []byte { return key(nil, w, d, c) }

// CustomerNameKey returns the by-name secondary key prefix (without the
// engine's primary-key uniquifier).
func CustomerNameKey(w, d uint32, last, first string) []byte {
	return keys.String(keys.String(key(nil, w, d), last), first)
}

// OrderKey returns the orders primary key.
func OrderKey(w, d, o uint32) []byte { return key(nil, w, d, o) }

// OrderCustomerKey returns the by-customer secondary key prefix.
func OrderCustomerKey(w, d, c, o uint32) []byte { return key(nil, w, d, c, o) }

// NewOrderKey returns the new_order primary key.
func NewOrderKey(w, d, o uint32) []byte { return key(nil, w, d, o) }

// OrderLineKey returns the order_line primary key.
func OrderLineKey(w, d, o, n uint32) []byte { return key(nil, w, d, o, n) }

// ItemKey returns the item primary key.
func ItemKey(i uint32) []byte { return key(nil, i) }

// StockKey returns the stock primary key.
func StockKey(w, i uint32) []byte { return key(nil, w, i) }

// HistoryKey returns the history primary key (seq uniquifies).
func HistoryKey(w, d, c uint32, seq uint64) []byte { return keys.Uint64(key(nil, w, d, c), seq) }

// Row views. Every table's encoded row is a fixed-width prefix followed by
// its strings (package row; DESIGN.md "Row layout and views"), and the const
// block above each view is the one place that knows its layout. A view reads
// the stored bytes in place and its string accessors alias them: a committed
// version's payload is never mutated (ROADMAP 1(d)), so a view stays valid
// for as long as it is referenced. The Set methods are for a transaction's
// private bytes.Clone of a row it is about to Update, never for a row the
// engine handed out. DecodeX materialises a whole view; X.Encode inverts it.

// warehouse: id u32 | tax f64 | ytd i64 | name street1 street2 city state zip
const (
	whID, whTax, whYTD, whFixed                          = 0, 4, 12, 20
	whName, whStreet1, whStreet2, whCity, whState, whZip = 0, 1, 2, 3, 4, 5
)

// WarehouseRow is a view of an encoded warehouse row.
type WarehouseRow []byte

func (r WarehouseRow) ID() uint32      { return row.U32(r, whID) }
func (r WarehouseRow) Tax() float64    { return row.F64(r, whTax) }
func (r WarehouseRow) YTD() int64      { return row.I64(r, whYTD) }
func (r WarehouseRow) SetYTD(v int64)  { row.Put64(r, whYTD, uint64(v)) }
func (r WarehouseRow) Name() []byte    { return row.Str(r, whFixed, whName) }
func (r WarehouseRow) Street1() []byte { return row.Str(r, whFixed, whStreet1) }
func (r WarehouseRow) Street2() []byte { return row.Str(r, whFixed, whStreet2) }
func (r WarehouseRow) City() []byte    { return row.Str(r, whFixed, whCity) }
func (r WarehouseRow) State() []byte   { return row.Str(r, whFixed, whState) }
func (r WarehouseRow) Zip() []byte     { return row.Str(r, whFixed, whZip) }

// Encode serializes the warehouse row.
func (r *Warehouse) Encode() []byte {
	b := row.New(whFixed, r.Name, r.Street1, r.Street2, r.City, r.State, r.Zip)
	row.Put32(b, whID, r.ID)
	row.PutF64(b, whTax, r.Tax)
	row.Put64(b, whYTD, uint64(r.YTD))
	return b
}

// DecodeWarehouse deserializes a warehouse row.
func DecodeWarehouse(b []byte) Warehouse {
	r := WarehouseRow(b)
	return Warehouse{
		ID: r.ID(), Name: string(r.Name()), Street1: string(r.Street1()), Street2: string(r.Street2()),
		City: string(r.City()), State: string(r.State()), Zip: string(r.Zip()), Tax: r.Tax(), YTD: r.YTD(),
	}
}

// district: id u32 | wid u32 | tax f64 | ytd i64 | nextoid u32 | name street1 street2 city state zip
const (
	dID, dWID, dTax, dYTD, dNextOID, dFixed        = 0, 4, 8, 16, 24, 28
	dName, dStreet1, dStreet2, dCity, dState, dZip = 0, 1, 2, 3, 4, 5
)

// DistrictRow is a view of an encoded district row.
type DistrictRow []byte

func (r DistrictRow) ID() uint32          { return row.U32(r, dID) }
func (r DistrictRow) WID() uint32         { return row.U32(r, dWID) }
func (r DistrictRow) Tax() float64        { return row.F64(r, dTax) }
func (r DistrictRow) YTD() int64          { return row.I64(r, dYTD) }
func (r DistrictRow) SetYTD(v int64)      { row.Put64(r, dYTD, uint64(v)) }
func (r DistrictRow) NextOID() uint32     { return row.U32(r, dNextOID) }
func (r DistrictRow) SetNextOID(v uint32) { row.Put32(r, dNextOID, v) }
func (r DistrictRow) Name() []byte        { return row.Str(r, dFixed, dName) }
func (r DistrictRow) Street1() []byte     { return row.Str(r, dFixed, dStreet1) }
func (r DistrictRow) Street2() []byte     { return row.Str(r, dFixed, dStreet2) }
func (r DistrictRow) City() []byte        { return row.Str(r, dFixed, dCity) }
func (r DistrictRow) State() []byte       { return row.Str(r, dFixed, dState) }
func (r DistrictRow) Zip() []byte         { return row.Str(r, dFixed, dZip) }

// Encode serializes the district row.
func (r *District) Encode() []byte {
	b := row.New(dFixed, r.Name, r.Street1, r.Street2, r.City, r.State, r.Zip)
	row.Put32(b, dID, r.ID)
	row.Put32(b, dWID, r.WID)
	row.PutF64(b, dTax, r.Tax)
	row.Put64(b, dYTD, uint64(r.YTD))
	row.Put32(b, dNextOID, r.NextOID)
	return b
}

// DecodeDistrict deserializes a district row.
func DecodeDistrict(b []byte) District {
	r := DistrictRow(b)
	return District{
		ID: r.ID(), WID: r.WID(), Name: string(r.Name()), Street1: string(r.Street1()),
		Street2: string(r.Street2()), City: string(r.City()), State: string(r.State()),
		Zip: string(r.Zip()), Tax: r.Tax(), YTD: r.YTD(), NextOID: r.NextOID(),
	}
}

// customer: id did wid u32 | since creditlim i64 | discount f64 | balance
// ytdpayment i64 | paymentcnt deliverycnt u32 | first middle last street1
// street2 city state zip phone credit data
const (
	cID, cDID, cWID, cSince, cCreditLim, cDiscount           = 0, 4, 8, 12, 20, 28
	cBalance, cYTDPayment, cPaymentCnt, cDeliveryCnt, cFixed = 36, 44, 52, 56, 60

	cFirst, cMiddle, cLast, cStreet1, cStreet2, cCity = 0, 1, 2, 3, 4, 5
	cState, cZip, cPhone, cCredit, cData              = 6, 7, 8, 9, 10
)

// CustomerRow is a view of an encoded customer row.
type CustomerRow []byte

func (r CustomerRow) ID() uint32              { return row.U32(r, cID) }
func (r CustomerRow) DID() uint32             { return row.U32(r, cDID) }
func (r CustomerRow) WID() uint32             { return row.U32(r, cWID) }
func (r CustomerRow) Since() int64            { return row.I64(r, cSince) }
func (r CustomerRow) CreditLim() int64        { return row.I64(r, cCreditLim) }
func (r CustomerRow) Discount() float64       { return row.F64(r, cDiscount) }
func (r CustomerRow) Balance() int64          { return row.I64(r, cBalance) }
func (r CustomerRow) SetBalance(v int64)      { row.Put64(r, cBalance, uint64(v)) }
func (r CustomerRow) YTDPayment() int64       { return row.I64(r, cYTDPayment) }
func (r CustomerRow) SetYTDPayment(v int64)   { row.Put64(r, cYTDPayment, uint64(v)) }
func (r CustomerRow) PaymentCnt() uint32      { return row.U32(r, cPaymentCnt) }
func (r CustomerRow) SetPaymentCnt(v uint32)  { row.Put32(r, cPaymentCnt, v) }
func (r CustomerRow) DeliveryCnt() uint32     { return row.U32(r, cDeliveryCnt) }
func (r CustomerRow) SetDeliveryCnt(v uint32) { row.Put32(r, cDeliveryCnt, v) }
func (r CustomerRow) First() []byte           { return row.Str(r, cFixed, cFirst) }
func (r CustomerRow) Middle() []byte          { return row.Str(r, cFixed, cMiddle) }
func (r CustomerRow) Last() []byte            { return row.Str(r, cFixed, cLast) }
func (r CustomerRow) Street1() []byte         { return row.Str(r, cFixed, cStreet1) }
func (r CustomerRow) Street2() []byte         { return row.Str(r, cFixed, cStreet2) }
func (r CustomerRow) City() []byte            { return row.Str(r, cFixed, cCity) }
func (r CustomerRow) State() []byte           { return row.Str(r, cFixed, cState) }
func (r CustomerRow) Zip() []byte             { return row.Str(r, cFixed, cZip) }
func (r CustomerRow) Phone() []byte           { return row.Str(r, cFixed, cPhone) }
func (r CustomerRow) Credit() []byte          { return row.Str(r, cFixed, cCredit) }
func (r CustomerRow) Data() []byte            { return row.Str(r, cFixed, cData) }

// Encode serializes the customer row.
func (r *Customer) Encode() []byte {
	b := row.New(cFixed, r.First, r.Middle, r.Last, r.Street1, r.Street2, r.City, r.State, r.Zip,
		r.Phone, r.Credit, r.Data)
	row.Put32(b, cID, r.ID)
	row.Put32(b, cDID, r.DID)
	row.Put32(b, cWID, r.WID)
	row.Put64(b, cSince, uint64(r.Since))
	row.Put64(b, cCreditLim, uint64(r.CreditLim))
	row.PutF64(b, cDiscount, r.Discount)
	row.Put64(b, cBalance, uint64(r.Balance))
	row.Put64(b, cYTDPayment, uint64(r.YTDPayment))
	row.Put32(b, cPaymentCnt, r.PaymentCnt)
	row.Put32(b, cDeliveryCnt, r.DeliveryCnt)
	return b
}

// DecodeCustomer deserializes a customer row.
func DecodeCustomer(b []byte) Customer {
	r := CustomerRow(b)
	return Customer{
		ID: r.ID(), DID: r.DID(), WID: r.WID(),
		First: string(r.First()), Middle: string(r.Middle()), Last: string(r.Last()),
		Street1: string(r.Street1()), Street2: string(r.Street2()), City: string(r.City()),
		State: string(r.State()), Zip: string(r.Zip()), Phone: string(r.Phone()),
		Since: r.Since(), Credit: string(r.Credit()), CreditLim: r.CreditLim(),
		Discount: r.Discount(), Balance: r.Balance(), YTDPayment: r.YTDPayment(),
		PaymentCnt: r.PaymentCnt(), DeliveryCnt: r.DeliveryCnt(), Data: string(r.Data()),
	}
}

// history: cid cdid cwid did wid u32 | date amount i64 | data
const (
	hCID, hCDID, hCWID, hDID, hWID, hDate, hAmount, hFixed = 0, 4, 8, 12, 16, 20, 28, 36
	hData                                                  = 0
)

// HistoryRow is a view of an encoded history row.
type HistoryRow []byte

func (r HistoryRow) CID() uint32   { return row.U32(r, hCID) }
func (r HistoryRow) CDID() uint32  { return row.U32(r, hCDID) }
func (r HistoryRow) CWID() uint32  { return row.U32(r, hCWID) }
func (r HistoryRow) DID() uint32   { return row.U32(r, hDID) }
func (r HistoryRow) WID() uint32   { return row.U32(r, hWID) }
func (r HistoryRow) Date() int64   { return row.I64(r, hDate) }
func (r HistoryRow) Amount() int64 { return row.I64(r, hAmount) }
func (r HistoryRow) Data() []byte  { return row.Str(r, hFixed, hData) }

// Encode serializes the history row.
func (r *History) Encode() []byte {
	b := row.New(hFixed, r.Data)
	row.Put32(b, hCID, r.CID)
	row.Put32(b, hCDID, r.CDID)
	row.Put32(b, hCWID, r.CWID)
	row.Put32(b, hDID, r.DID)
	row.Put32(b, hWID, r.WID)
	row.Put64(b, hDate, uint64(r.Date))
	row.Put64(b, hAmount, uint64(r.Amount))
	return b
}

// DecodeHistory deserializes a history row.
func DecodeHistory(b []byte) History {
	r := HistoryRow(b)
	return History{
		CID: r.CID(), CDID: r.CDID(), CWID: r.CWID(), DID: r.DID(), WID: r.WID(),
		Date: r.Date(), Amount: r.Amount(), Data: string(r.Data()),
	}
}

// new_order: oid did wid u32
const noOID, noDID, noWID, noFixed = 0, 4, 8, 12

// NewOrderView is a view of an encoded new-order row (NewOrderRow is the
// decoded struct).
type NewOrderView []byte

func (r NewOrderView) OID() uint32 { return row.U32(r, noOID) }
func (r NewOrderView) DID() uint32 { return row.U32(r, noDID) }
func (r NewOrderView) WID() uint32 { return row.U32(r, noWID) }

// Encode serializes the new-order row.
func (r *NewOrderRow) Encode() []byte {
	b := row.New(noFixed)
	row.Put32(b, noOID, r.OID)
	row.Put32(b, noDID, r.DID)
	row.Put32(b, noWID, r.WID)
	return b
}

// DecodeNewOrder deserializes a new-order row.
func DecodeNewOrder(b []byte) NewOrderRow {
	r := NewOrderView(b)
	return NewOrderRow{OID: r.OID(), DID: r.DID(), WID: r.WID()}
}

// orders: id did wid cid u32 | entryd i64 | carrierid olcnt alllocal u32
const oID, oDID, oWID, oCID, oEntryD, oCarrierID, oOLCnt, oAllLocal, oFixed = 0, 4, 8, 12, 16, 24, 28, 32, 36

// OrderRow is a view of an encoded order row.
type OrderRow []byte

func (r OrderRow) ID() uint32            { return row.U32(r, oID) }
func (r OrderRow) DID() uint32           { return row.U32(r, oDID) }
func (r OrderRow) WID() uint32           { return row.U32(r, oWID) }
func (r OrderRow) CID() uint32           { return row.U32(r, oCID) }
func (r OrderRow) EntryD() int64         { return row.I64(r, oEntryD) }
func (r OrderRow) CarrierID() uint32     { return row.U32(r, oCarrierID) }
func (r OrderRow) SetCarrierID(v uint32) { row.Put32(r, oCarrierID, v) }
func (r OrderRow) OLCnt() uint32         { return row.U32(r, oOLCnt) }
func (r OrderRow) AllLocal() uint32      { return row.U32(r, oAllLocal) }

// Encode serializes the order row.
func (r *Order) Encode() []byte {
	b := row.New(oFixed)
	row.Put32(b, oID, r.ID)
	row.Put32(b, oDID, r.DID)
	row.Put32(b, oWID, r.WID)
	row.Put32(b, oCID, r.CID)
	row.Put64(b, oEntryD, uint64(r.EntryD))
	row.Put32(b, oCarrierID, r.CarrierID)
	row.Put32(b, oOLCnt, r.OLCnt)
	row.Put32(b, oAllLocal, r.AllLocal)
	return b
}

// DecodeOrder deserializes an order row.
func DecodeOrder(b []byte) Order {
	r := OrderRow(b)
	return Order{
		ID: r.ID(), DID: r.DID(), WID: r.WID(), CID: r.CID(),
		EntryD: r.EntryD(), CarrierID: r.CarrierID(), OLCnt: r.OLCnt(), AllLocal: r.AllLocal(),
	}
}

// order_line: oid did wid number iid supplywid u32 | deliveryd i64 |
// quantity u32 | amount i64 | distinfo
const (
	olOID, olDID, olWID, olNumber, olIID, olSupplyWID      = 0, 4, 8, 12, 16, 20
	olDeliveryD, olQuantity, olAmount, olFixed, olDistInfo = 24, 32, 36, 44, 0
)

// OrderLineRow is a view of an encoded order-line row.
type OrderLineRow []byte

func (r OrderLineRow) OID() uint32          { return row.U32(r, olOID) }
func (r OrderLineRow) DID() uint32          { return row.U32(r, olDID) }
func (r OrderLineRow) WID() uint32          { return row.U32(r, olWID) }
func (r OrderLineRow) Number() uint32       { return row.U32(r, olNumber) }
func (r OrderLineRow) IID() uint32          { return row.U32(r, olIID) }
func (r OrderLineRow) SupplyWID() uint32    { return row.U32(r, olSupplyWID) }
func (r OrderLineRow) DeliveryD() int64     { return row.I64(r, olDeliveryD) }
func (r OrderLineRow) SetDeliveryD(v int64) { row.Put64(r, olDeliveryD, uint64(v)) }
func (r OrderLineRow) Quantity() uint32     { return row.U32(r, olQuantity) }
func (r OrderLineRow) Amount() int64        { return row.I64(r, olAmount) }
func (r OrderLineRow) DistInfo() []byte     { return row.Str(r, olFixed, olDistInfo) }

// Encode serializes the order-line row.
func (r *OrderLine) Encode() []byte {
	b := row.New(olFixed, r.DistInfo)
	row.Put32(b, olOID, r.OID)
	row.Put32(b, olDID, r.DID)
	row.Put32(b, olWID, r.WID)
	row.Put32(b, olNumber, r.Number)
	row.Put32(b, olIID, r.IID)
	row.Put32(b, olSupplyWID, r.SupplyWID)
	row.Put64(b, olDeliveryD, uint64(r.DeliveryD))
	row.Put32(b, olQuantity, r.Quantity)
	row.Put64(b, olAmount, uint64(r.Amount))
	return b
}

// DecodeOrderLine deserializes an order-line row.
func DecodeOrderLine(b []byte) OrderLine {
	r := OrderLineRow(b)
	return OrderLine{
		OID: r.OID(), DID: r.DID(), WID: r.WID(), Number: r.Number(), IID: r.IID(),
		SupplyWID: r.SupplyWID(), DeliveryD: r.DeliveryD(), Quantity: r.Quantity(), Amount: r.Amount(),
		DistInfo: string(r.DistInfo()),
	}
}

// item: id imid u32 | price i64 | name data
const iID, iImID, iPrice, iFixed, iName, iData = 0, 4, 8, 16, 0, 1

// ItemRow is a view of an encoded item row.
type ItemRow []byte

func (r ItemRow) ID() uint32   { return row.U32(r, iID) }
func (r ItemRow) ImID() uint32 { return row.U32(r, iImID) }
func (r ItemRow) Price() int64 { return row.I64(r, iPrice) }
func (r ItemRow) Name() []byte { return row.Str(r, iFixed, iName) }
func (r ItemRow) Data() []byte { return row.Str(r, iFixed, iData) }

// Encode serializes the item row.
func (r *Item) Encode() []byte {
	b := row.New(iFixed, r.Name, r.Data)
	row.Put32(b, iID, r.ID)
	row.Put32(b, iImID, r.ImID)
	row.Put64(b, iPrice, uint64(r.Price))
	return b
}

// DecodeItem deserializes an item row.
func DecodeItem(b []byte) Item {
	r := ItemRow(b)
	return Item{ID: r.ID(), ImID: r.ImID(), Name: string(r.Name()), Price: r.Price(), Data: string(r.Data())}
}

// stock: iid wid quantity u32 | ytd u64 | ordercnt remotecnt u32 | dist01..dist10 data
const sIID, sWID, sQuantity, sYTD, sOrderCnt, sRemoteCnt, sFixed, sDist, sData = 0, 4, 8, 12, 20, 24, 28, 0, 10

// StockRow is a view of an encoded stock row.
type StockRow []byte

func (r StockRow) IID() uint32           { return row.U32(r, sIID) }
func (r StockRow) WID() uint32           { return row.U32(r, sWID) }
func (r StockRow) Quantity() int32       { return int32(row.U32(r, sQuantity)) }
func (r StockRow) SetQuantity(v int32)   { row.Put32(r, sQuantity, uint32(v)) }
func (r StockRow) YTD() uint64           { return row.U64(r, sYTD) }
func (r StockRow) SetYTD(v uint64)       { row.Put64(r, sYTD, v) }
func (r StockRow) OrderCnt() uint32      { return row.U32(r, sOrderCnt) }
func (r StockRow) SetOrderCnt(v uint32)  { row.Put32(r, sOrderCnt, v) }
func (r StockRow) RemoteCnt() uint32     { return row.U32(r, sRemoteCnt) }
func (r StockRow) SetRemoteCnt(v uint32) { row.Put32(r, sRemoteCnt, v) }
func (r StockRow) Dist(i int) []byte     { return row.Str(r, sFixed, sDist+i) }
func (r StockRow) Data() []byte          { return row.Str(r, sFixed, sData) }

// Encode serializes the stock row.
func (r *Stock) Encode() []byte {
	var strs [sData + 1]string
	copy(strs[:], r.Dists[:])
	strs[sData] = r.Data
	b := row.New(sFixed, strs[:]...)
	row.Put32(b, sIID, r.IID)
	row.Put32(b, sWID, r.WID)
	row.Put32(b, sQuantity, uint32(r.Quantity))
	row.Put64(b, sYTD, r.YTD)
	row.Put32(b, sOrderCnt, r.OrderCnt)
	row.Put32(b, sRemoteCnt, r.RemoteCnt)
	return b
}

// DecodeStock deserializes a stock row.
func DecodeStock(b []byte) Stock {
	r := StockRow(b)
	s := Stock{IID: r.IID(), WID: r.WID(), Quantity: r.Quantity(), YTD: r.YTD(),
		OrderCnt: r.OrderCnt(), RemoteCnt: r.RemoteCnt(), Data: string(r.Data())}
	for i := range s.Dists {
		s.Dists[i] = string(r.Dist(i))
	}
	return s
}

// CreateSchema creates all TPC-C tables and secondary indexes on e.
// Call once, before loading.
func CreateSchema(e *engine.Engine) {
	e.CreateTable(TabWarehouse)
	e.CreateTable(TabDistrict)
	cust := e.CreateTable(TabCustomer)
	cust.CreateIndex(IdxCustomerByName, func(pk, b []byte) []byte {
		c := CustomerRow(b)
		return CustomerNameKey(c.WID(), c.DID(), string(c.Last()), string(c.First()))
	})
	e.CreateTable(TabHistory)
	e.CreateTable(TabNewOrder)
	orders := e.CreateTable(TabOrders)
	orders.CreateIndex(IdxOrdersByCustomer, func(pk, b []byte) []byte {
		o := OrderRow(b)
		return OrderCustomerKey(o.WID(), o.DID(), o.CID(), o.ID())
	})
	e.CreateTable(TabOrderLine)
	e.CreateTable(TabItem)
	e.CreateTable(TabStock)
}
