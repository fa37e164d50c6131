package tpcc

import (
	"errors"
	"testing"

	"preemptdb/internal/engine"
	"preemptdb/internal/keys"
	"preemptdb/internal/rng"
)

// testScale keeps load times tiny while exercising all code paths.
var testScale = ScaleConfig{Warehouses: 2, Districts: 3, Customers: 20, Items: 100, Seed: 42}

func loadedClient(t *testing.T) *Client { return loadedAt(t, testScale) }

// ytdInvariant checks the TPC-C consistency condition W_YTD = ΣD_YTD per
// warehouse (condition 1 of the spec's consistency requirements).
func ytdInvariant(t *testing.T, c *Client) {
	t.Helper()
	tx := c.e.Begin(nil)
	defer tx.Abort()
	for w := 1; w <= c.cfg.Warehouses; w++ {
		wRow, err := tx.Get(c.warehouses, WarehouseKey(uint32(w)))
		if err != nil {
			t.Fatalf("warehouse %d: %v", w, err)
		}
		wh := DecodeWarehouse(wRow)
		var sum int64
		for d := 1; d <= c.cfg.Districts; d++ {
			dRow, err := tx.Get(c.districts, DistrictKey(uint32(w), uint32(d)))
			if err != nil {
				t.Fatal(err)
			}
			sum += DecodeDistrict(dRow).YTD
		}
		if wh.YTD != sum {
			t.Fatalf("warehouse %d: W_YTD=%d ΣD_YTD=%d", w, wh.YTD, sum)
		}
	}
}

// nextOIDInvariant checks D_NEXT_O_ID-1 = max(O_ID) per district
// (consistency condition 2).
func nextOIDInvariant(t *testing.T, c *Client) {
	t.Helper()
	tx := c.e.Begin(nil)
	defer tx.Abort()
	for w := 1; w <= c.cfg.Warehouses; w++ {
		for d := 1; d <= c.cfg.Districts; d++ {
			dRow, err := tx.Get(c.districts, DistrictKey(uint32(w), uint32(d)))
			if err != nil {
				t.Fatal(err)
			}
			next := DecodeDistrict(dRow).NextOID
			var maxO uint32
			from := OrderKey(uint32(w), uint32(d), 0)
			to := OrderKey(uint32(w), uint32(d)+1, 0)
			tx.Scan(c.orders, from, to, func(_, row []byte) bool {
				maxO = DecodeOrder(row).ID
				return true
			})
			if next != maxO+1 {
				t.Fatalf("w%d d%d: next=%d maxO=%d", w, d, next, maxO)
			}
		}
	}
}

func TestLoadInitialState(t *testing.T) {
	c := loadedClient(t)
	ytdInvariant(t, c)
	nextOIDInvariant(t, c)

	tx := c.e.Begin(nil)
	defer tx.Abort()
	// Catalog size.
	n := 0
	tx.Scan(c.items, nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != testScale.Items {
		t.Fatalf("items = %d", n)
	}
	// One stock row per (warehouse, item).
	n = 0
	tx.Scan(c.stock, nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != testScale.Items*testScale.Warehouses {
		t.Fatalf("stock = %d", n)
	}
	// Customers per district, reachable by name index.
	n = 0
	tx.Scan(c.customers, nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != testScale.Warehouses*testScale.Districts*testScale.Customers {
		t.Fatalf("customers = %d", n)
	}
	// Orders preloaded: one per customer; last third undelivered.
	n = 0
	tx.Scan(c.orders, nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != testScale.Warehouses*testScale.Districts*testScale.Customers {
		t.Fatalf("orders = %d", n)
	}
	undelivered := 0
	tx.Scan(c.neworder, nil, nil, func(_, _ []byte) bool { undelivered++; return true })
	wantUndelivered := testScale.Warehouses * testScale.Districts *
		(testScale.Customers - testScale.Customers*2/3)
	if undelivered != wantUndelivered {
		t.Fatalf("new orders = %d, want %d", undelivered, wantUndelivered)
	}
}

func TestNewOrderCreatesRows(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(7)
	tx := c.e.Begin(nil)
	before := DecodeDistrict(mustGet(t, tx, c.districts, DistrictKey(1, 1)))
	tx.Abort()

	// Run until district 1 gets an order (district choice is random).
	var after District
	for i := 0; i < 200; i++ {
		if err := c.NewOrder(nil, r, 1); err != nil && !errors.Is(err, ErrUserAbort) {
			t.Fatalf("neworder: %v", err)
		}
		tx := c.e.Begin(nil)
		after = DecodeDistrict(mustGet(t, tx, c.districts, DistrictKey(1, 1)))
		tx.Abort()
		if after.NextOID > before.NextOID {
			break
		}
	}
	if after.NextOID <= before.NextOID {
		t.Fatal("district 1 never received an order")
	}
	oid := after.NextOID - 1
	tx2 := c.e.Begin(nil)
	defer tx2.Abort()
	ord := DecodeOrder(mustGet(t, tx2, c.orders, OrderKey(1, 1, oid)))
	if ord.OLCnt < 5 || ord.OLCnt > 15 {
		t.Fatalf("ol_cnt = %d", ord.OLCnt)
	}
	// Every order line must exist with a positive amount.
	lines := 0
	tx2.Scan(c.orderline, OrderLineKey(1, 1, oid, 0), OrderLineKey(1, 1, oid+1, 0),
		func(_, row []byte) bool {
			ol := DecodeOrderLine(row)
			if ol.Amount <= 0 {
				t.Errorf("line %d amount %d", ol.Number, ol.Amount)
			}
			lines++
			return true
		})
	if uint32(lines) != ord.OLCnt {
		t.Fatalf("lines = %d, want %d", lines, ord.OLCnt)
	}
	// The new_order row must exist.
	if _, err := tx2.Get(c.neworder, NewOrderKey(1, 1, oid)); err != nil {
		t.Fatalf("new_order row: %v", err)
	}
	nextOIDInvariant(t, c)
}

func TestNewOrderUserAbortRollsBack(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(1)
	aborts, runs := 0, 0
	for i := 0; i < 600 && aborts == 0; i++ {
		err := c.NewOrder(nil, r, 1)
		runs++
		if errors.Is(err, ErrUserAbort) {
			aborts++
		} else if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if aborts == 0 {
		t.Fatalf("no user abort in %d runs (expected ~1%%)", runs)
	}
	nextOIDInvariant(t, c) // rollback must not leak a NextOID bump
	ytdInvariant(t, c)
}

func TestPaymentMaintainsYTD(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		if err := c.Payment(nil, r, uint32(1+i%testScale.Warehouses)); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	ytdInvariant(t, c)

	// History rows must have been inserted.
	tx := c.e.Begin(nil)
	defer tx.Abort()
	n := 0
	tx.Scan(c.history, nil, nil, func(_, _ []byte) bool { n++; return true })
	preloaded := testScale.Warehouses * testScale.Districts * testScale.Customers
	if n != preloaded+50 {
		t.Fatalf("history rows = %d, want %d", n, preloaded+50)
	}
}

func TestPaymentByNameFindsCustomer(t *testing.T) {
	c := loadedClient(t)
	// Force by-name path repeatedly; all runs must succeed.
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		if err := c.Payment(nil, r, 1); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
}

func TestOrderStatus(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(9)
	for i := 0; i < 50; i++ {
		if err := c.OrderStatus(nil, r, 1); err != nil {
			t.Fatalf("orderstatus %d: %v", i, err)
		}
	}
	if c.e.Commits() == 0 {
		t.Fatal("no commits")
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(11)
	countNew := func() int {
		tx := c.e.Begin(nil)
		defer tx.Abort()
		n := 0
		from := NewOrderKey(1, 0, 0)
		to := NewOrderKey(2, 0, 0)
		tx.Scan(c.neworder, from, to, func(_, _ []byte) bool { n++; return true })
		return n
	}
	before := countNew()
	if before == 0 {
		t.Fatal("no undelivered orders preloaded")
	}
	if err := c.Delivery(nil, r, 1); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	after := countNew()
	if after != before-testScale.Districts {
		t.Fatalf("new orders %d -> %d, want -%d", before, after, testScale.Districts)
	}
	// Delivered orders must have a carrier and delivered lines.
	tx := c.e.Begin(nil)
	defer tx.Abort()
	ord := DecodeOrder(mustGet(t, tx, c.orders, OrderKey(1, 1, uint32(testScale.Customers*2/3+1))))
	if ord.CarrierID == 0 {
		t.Fatal("delivered order has no carrier")
	}
}

func TestStockLevel(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(13)
	for i := 0; i < 20; i++ {
		if err := c.StockLevel(nil, r, 2); err != nil {
			t.Fatalf("stocklevel %d: %v", i, err)
		}
	}
}

func TestStandardMixMaintainsInvariants(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(17)
	counts := map[MixOutcome]int{}
	for i := 0; i < 300; i++ {
		kind := PickMix(r)
		counts[kind]++
		w := uint32(r.IntRange(1, testScale.Warehouses))
		if err := c.Run(kind, nil, r, w); err != nil && !errors.Is(err, ErrUserAbort) {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	// The mix must hit every type.
	for k := TxNewOrder; k <= TxStockLevel; k++ {
		if counts[k] == 0 {
			t.Fatalf("mix never produced %v (counts %v)", k, counts)
		}
	}
	if counts[TxNewOrder] < 100 || counts[TxPayment] < 100 {
		t.Fatalf("mix skew: %v", counts)
	}
	ytdInvariant(t, c)
	nextOIDInvariant(t, c)
}

func TestMixOutcomeString(t *testing.T) {
	names := map[MixOutcome]string{
		TxNewOrder: "NewOrder", TxPayment: "Payment", TxOrderStatus: "OrderStatus",
		TxDelivery: "Delivery", TxStockLevel: "StockLevel",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if MixOutcome(99).String() == "" {
		t.Error("unknown must format")
	}
	if err := (&Client{}).Run(MixOutcome(99), nil, rng.New(1), 1); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestCodecRoundtrips(t *testing.T) {
	w := Warehouse{ID: 3, Name: "acme", Street1: "a", Street2: "b", City: "c",
		State: "WA", Zip: "98765", Tax: 0.12, YTD: 123456}
	if got := DecodeWarehouse(w.Encode()); got != w {
		t.Fatalf("warehouse: %+v != %+v", got, w)
	}
	d := District{ID: 1, WID: 3, Name: "d1", Tax: 0.05, YTD: 42, NextOID: 77}
	if got := DecodeDistrict(d.Encode()); got != d {
		t.Fatalf("district: %+v", got)
	}
	cu := Customer{ID: 9, DID: 1, WID: 3, First: "Jo", Middle: "OE", Last: "BARBAR",
		Credit: "GC", CreditLim: 5000000, Discount: 0.3, Balance: -1000,
		YTDPayment: 1000, PaymentCnt: 1, Data: "xyz"}
	if got := DecodeCustomer(cu.Encode()); got != cu {
		t.Fatalf("customer: %+v", got)
	}
	h := History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 6, Amount: 7, Data: "h"}
	if got := DecodeHistory(h.Encode()); got != h {
		t.Fatalf("history: %+v", got)
	}
	no := NewOrderRow{OID: 1, DID: 2, WID: 3}
	if got := DecodeNewOrder(no.Encode()); got != no {
		t.Fatalf("neworder: %+v", got)
	}
	o := Order{ID: 1, DID: 2, WID: 3, CID: 4, EntryD: 5, CarrierID: 6, OLCnt: 7, AllLocal: 1}
	if got := DecodeOrder(o.Encode()); got != o {
		t.Fatalf("order: %+v", got)
	}
	ol := OrderLine{OID: 1, DID: 2, WID: 3, Number: 4, IID: 5, SupplyWID: 6,
		DeliveryD: 7, Quantity: 8, Amount: 9, DistInfo: "info"}
	if got := DecodeOrderLine(ol.Encode()); got != ol {
		t.Fatalf("orderline: %+v", got)
	}
	it := Item{ID: 1, ImID: 2, Name: "widget", Price: 999, Data: "ORIGINAL"}
	if got := DecodeItem(it.Encode()); got != it {
		t.Fatalf("item: %+v", got)
	}
	st := Stock{IID: 1, WID: 2, Quantity: -5, YTD: 10, OrderCnt: 3, RemoteCnt: 1, Data: "sd"}
	for i := range st.Dists {
		st.Dists[i] = "dist"
	}
	if got := DecodeStock(st.Encode()); got != st {
		t.Fatalf("stock: %+v", got)
	}
}

func TestCustomerNameKeyOrdering(t *testing.T) {
	// Index keys must group by (w,d,last) with first-name order inside.
	a := CustomerNameKey(1, 1, "ABLE", "alice")
	b := CustomerNameKey(1, 1, "ABLE", "bob")
	z := CustomerNameKey(1, 1, "BAR", "aaron")
	if !(string(a) < string(b) && string(b) < string(z)) {
		t.Fatal("name key ordering broken")
	}
	p := CustomerNameKey(1, 1, "ABLE", "")
	end := keys.PrefixEnd(keys.String(keys.Uint32(keys.Uint32(nil, 1), 1), "ABLE"))
	if !(string(p) < string(end)) {
		t.Fatal("prefix bound broken")
	}
}

func mustGet(t *testing.T, tx *engine.Txn, tab *engine.Table, key []byte) []byte {
	t.Helper()
	row, err := tx.Get(tab, key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	return row
}
