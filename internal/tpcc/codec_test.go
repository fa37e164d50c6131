package tpcc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// edge widens quick's random rows with the values a layout gets wrong first:
// empty strings, a string long enough for a two-byte length (the longest
// C_DATA), 0 and max.
func edge(i int, s *string, u *uint32, v *int64) {
	switch i % 4 {
	case 1:
		*s, *u, *v = "", 0, 0
	case 2:
		*s, *u, *v = strings.Repeat("x", 500), math.MaxUint32, math.MaxInt64
	case 3:
		*v = math.MinInt64
	}
}

// TestCodecProperties: for every row type DecodeX(x.Encode()) == x, the
// encoding has exactly the length New computed (no spare capacity), each view
// accessor equals the struct field, and each Set patch reads back and leaves
// every other field alone.
func TestCodecProperties(t *testing.T) {
	eq := func(b []byte, s string) bool { return string(b) == s }
	n := 0
	check := func(f any) {
		t.Helper()
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	check(func(x Warehouse, ytd int64) bool {
		n++
		edge(n, &x.Zip, &x.ID, &x.YTD)
		x.Tax = float64(x.ID%2000) / 10000 // quick's floats include NaN, which != itself
		b := x.Encode()
		r := WarehouseRow(b)
		ok := DecodeWarehouse(b) == x && len(b) == cap(b) && r.ID() == x.ID && r.Tax() == x.Tax &&
			r.YTD() == x.YTD && eq(r.Name(), x.Name) && eq(r.Street1(), x.Street1) &&
			eq(r.Street2(), x.Street2) && eq(r.City(), x.City) && eq(r.State(), x.State) && eq(r.Zip(), x.Zip)
		r.SetYTD(ytd)
		x.YTD = ytd
		return ok && DecodeWarehouse(b) == x
	})
	check(func(x District, ytd int64, next uint32) bool {
		n++
		edge(n, &x.Zip, &x.NextOID, &x.YTD)
		x.Tax = float64(x.ID%2000) / 10000
		b := x.Encode()
		r := DistrictRow(b)
		ok := DecodeDistrict(b) == x && len(b) == cap(b) && r.ID() == x.ID && r.WID() == x.WID &&
			r.Tax() == x.Tax && r.YTD() == x.YTD && r.NextOID() == x.NextOID && eq(r.Name(), x.Name) &&
			eq(r.Street1(), x.Street1) && eq(r.Street2(), x.Street2) && eq(r.City(), x.City) &&
			eq(r.State(), x.State) && eq(r.Zip(), x.Zip)
		r.SetYTD(ytd)
		r.SetNextOID(next)
		x.YTD, x.NextOID = ytd, next
		return ok && DecodeDistrict(b) == x
	})
	check(func(x Customer, bal, ytd int64, pc, dc uint32) bool {
		n++
		edge(n, &x.Data, &x.DeliveryCnt, &x.Balance)
		x.Discount = float64(x.ID%5000) / 10000
		b := x.Encode()
		r := CustomerRow(b)
		ok := DecodeCustomer(b) == x && len(b) == cap(b) && r.ID() == x.ID && r.DID() == x.DID &&
			r.WID() == x.WID && r.Since() == x.Since && r.CreditLim() == x.CreditLim &&
			r.Discount() == x.Discount && r.Balance() == x.Balance && r.YTDPayment() == x.YTDPayment &&
			r.PaymentCnt() == x.PaymentCnt && r.DeliveryCnt() == x.DeliveryCnt &&
			eq(r.First(), x.First) && eq(r.Middle(), x.Middle) && eq(r.Last(), x.Last) &&
			eq(r.Street1(), x.Street1) && eq(r.Street2(), x.Street2) && eq(r.City(), x.City) &&
			eq(r.State(), x.State) && eq(r.Zip(), x.Zip) && eq(r.Phone(), x.Phone) &&
			eq(r.Credit(), x.Credit) && eq(r.Data(), x.Data)
		r.SetBalance(bal)
		r.SetYTDPayment(ytd)
		r.SetPaymentCnt(pc)
		r.SetDeliveryCnt(dc)
		x.Balance, x.YTDPayment, x.PaymentCnt, x.DeliveryCnt = bal, ytd, pc, dc
		return ok && DecodeCustomer(b) == x
	})
	check(func(x History) bool {
		n++
		edge(n, &x.Data, &x.WID, &x.Amount)
		b := x.Encode()
		r := HistoryRow(b)
		return DecodeHistory(b) == x && len(b) == cap(b) && r.CID() == x.CID && r.CDID() == x.CDID &&
			r.CWID() == x.CWID && r.DID() == x.DID && r.WID() == x.WID && r.Date() == x.Date &&
			r.Amount() == x.Amount && eq(r.Data(), x.Data)
	})
	check(func(x NewOrderRow) bool {
		b := x.Encode()
		r := NewOrderView(b)
		return DecodeNewOrder(b) == x && len(b) == cap(b) && r.OID() == x.OID && r.DID() == x.DID && r.WID() == x.WID
	})
	check(func(x Order, carrier uint32) bool {
		n++
		edge(n, new(string), &x.AllLocal, &x.EntryD)
		b := x.Encode()
		r := OrderRow(b)
		ok := DecodeOrder(b) == x && len(b) == cap(b) && r.ID() == x.ID && r.DID() == x.DID &&
			r.WID() == x.WID && r.CID() == x.CID && r.EntryD() == x.EntryD &&
			r.CarrierID() == x.CarrierID && r.OLCnt() == x.OLCnt && r.AllLocal() == x.AllLocal
		r.SetCarrierID(carrier)
		x.CarrierID = carrier
		return ok && DecodeOrder(b) == x
	})
	check(func(x OrderLine, delivered int64) bool {
		n++
		edge(n, &x.DistInfo, &x.Quantity, &x.Amount)
		b := x.Encode()
		r := OrderLineRow(b)
		ok := DecodeOrderLine(b) == x && len(b) == cap(b) && r.OID() == x.OID && r.DID() == x.DID &&
			r.WID() == x.WID && r.Number() == x.Number && r.IID() == x.IID &&
			r.SupplyWID() == x.SupplyWID && r.DeliveryD() == x.DeliveryD &&
			r.Quantity() == x.Quantity && r.Amount() == x.Amount && eq(r.DistInfo(), x.DistInfo)
		r.SetDeliveryD(delivered)
		x.DeliveryD = delivered
		return ok && DecodeOrderLine(b) == x
	})
	check(func(x Item) bool {
		n++
		edge(n, &x.Data, &x.ImID, &x.Price)
		b := x.Encode()
		r := ItemRow(b)
		return DecodeItem(b) == x && len(b) == cap(b) && r.ID() == x.ID && r.ImID() == x.ImID &&
			r.Price() == x.Price && eq(r.Name(), x.Name) && eq(r.Data(), x.Data)
	})
	check(func(x Stock, q int32, ytd uint64, oc, rc uint32) bool {
		n++
		edge(n, &x.Data, &x.RemoteCnt, new(int64))
		edge(n, &x.Dists[9], &x.OrderCnt, new(int64))
		b := x.Encode()
		r := StockRow(b)
		ok := DecodeStock(b) == x && len(b) == cap(b) && r.IID() == x.IID && r.WID() == x.WID &&
			r.Quantity() == x.Quantity && r.YTD() == x.YTD && r.OrderCnt() == x.OrderCnt &&
			r.RemoteCnt() == x.RemoteCnt && eq(r.Data(), x.Data)
		for i, d := range x.Dists {
			ok = ok && eq(r.Dist(i), d)
		}
		r.SetQuantity(q)
		r.SetYTD(ytd)
		r.SetOrderCnt(oc)
		r.SetRemoteCnt(rc)
		x.Quantity, x.YTD, x.OrderCnt, x.RemoteCnt = q, ytd, oc, rc
		return ok && DecodeStock(b) == x
	})
}
