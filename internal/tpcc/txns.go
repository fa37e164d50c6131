package tpcc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"preemptdb/internal/engine"
	"preemptdb/internal/keys"
	"preemptdb/internal/pcontext"
	"preemptdb/internal/rng"
)

// ErrUserAbort is the spec-mandated 1% NewOrder rollback (invalid item).
// It is an expected outcome, not a failure.
var ErrUserAbort = errors.New("tpcc: simulated user abort (invalid item)")

// maxRetries bounds conflict retries per transaction call.
const maxRetries = 100

// Client executes TPC-C transactions against a loaded database. One Client
// serves all workers; per-call state comes from the caller's context and RNG.
type Client struct {
	e   *engine.Engine
	cfg ScaleConfig

	warehouses, districts, customers, history *engine.Table
	neworder, orders, orderline, items, stock *engine.Table

	hseq atomic.Uint64 // history primary-key uniquifier
}

// NewClient binds a client to a loaded engine.
func NewClient(e *engine.Engine, cfg ScaleConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		e: e, cfg: cfg,
		warehouses: e.MustTable(TabWarehouse),
		districts:  e.MustTable(TabDistrict),
		customers:  e.MustTable(TabCustomer),
		history:    e.MustTable(TabHistory),
		neworder:   e.MustTable(TabNewOrder),
		orders:     e.MustTable(TabOrders),
		orderline:  e.MustTable(TabOrderLine),
		items:      e.MustTable(TabItem),
		stock:      e.MustTable(TabStock),
	}
}

// Scale returns the loaded scale configuration.
func (c *Client) Scale() ScaleConfig { return c.cfg }

// Engine returns the underlying storage engine.
func (c *Client) Engine() *engine.Engine { return c.e }

// retry runs body until it commits, hits a non-conflict error, or exhausts
// the retry budget. Conflict retries are part of a transaction's end-to-end
// latency, exactly as in the paper's driver. The first few retries are
// immediate (most conflicts clear as soon as the winner commits); persistent
// contention backs off exponentially with full jitter, bounded so a worker
// core is never idled for more than ~1ms per attempt.
func retry(fn func() error) error {
	const immediateRetries = 4
	const maxBackoff = time.Millisecond
	backoff := 20 * time.Microsecond
	for i := 0; i < maxRetries; i++ {
		err := fn()
		if err == nil || !engine.IsConflict(err) {
			return err
		}
		if i >= immediateRetries {
			time.Sleep(time.Duration(rand.Int64N(int64(backoff)) + 1))
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
	return fmt.Errorf("tpcc: transaction exceeded %d conflict retries", maxRetries)
}

// randomWID returns a warehouse other than home when possible.
func (c *Client) randomRemoteWID(r *rng.Rand, home uint32) uint32 {
	if c.cfg.Warehouses == 1 {
		return home
	}
	for {
		w := uint32(r.IntRange(1, c.cfg.Warehouses))
		if w != home {
			return w
		}
	}
}

// NewOrder runs the New-Order transaction for the given home warehouse.
func (c *Client) NewOrder(ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	did := uint32(r.IntRange(1, c.cfg.Districts))
	cid := uint32(r.NURand(1023, 1, c.cfg.Customers))
	olCnt := r.IntRange(5, 15)
	rollback := r.IntRange(1, 100) == 1

	type line struct {
		iid, supplyW, qty uint32
	}
	var lineBuf [15]line
	lines := lineBuf[:olCnt]
	allLocal := uint32(1)
	for i := range lines {
		lines[i] = line{
			iid:     uint32(r.NURand(8191, 1, c.cfg.Items)),
			supplyW: w,
			qty:     uint32(r.IntRange(1, 10)),
		}
		if r.IntRange(1, 100) == 1 { // 1% remote supply warehouse
			lines[i].supplyW = c.randomRemoteWID(r, w)
		}
		if lines[i].supplyW != w {
			allLocal = 0
		}
	}
	if rollback {
		lines[olCnt-1].iid = uint32(c.cfg.Items) + 999999 // unused item: forces abort
	}

	return retry(func() error {
		tx := c.e.Begin(ctx)
		defer tx.Abort()
		var kb keyBuf

		wRow, err := tx.Get(c.warehouses, key(kb[:0], w))
		if err != nil {
			return err
		}
		wTax := WarehouseRow(wRow).Tax()

		dRow, err := tx.Get(c.districts, key(kb[:0], w, did))
		if err != nil {
			return err
		}
		district := DistrictRow(bytes.Clone(dRow))
		oid := district.NextOID()
		district.SetNextOID(oid + 1)
		if err := tx.Update(c.districts, key(kb[:0], w, did), district); err != nil {
			return err
		}

		cRow, err := tx.Get(c.customers, key(kb[:0], w, did, cid))
		if err != nil {
			return err
		}
		discount := CustomerRow(cRow).Discount()

		ord := Order{ID: oid, DID: did, WID: w, CID: cid, OLCnt: uint32(olCnt), AllLocal: allLocal}
		if err := tx.Insert(c.orders, key(kb[:0], w, did, oid), ord.Encode()); err != nil {
			return err
		}
		no := NewOrderRow{OID: oid, DID: did, WID: w}
		if err := tx.Insert(c.neworder, key(kb[:0], w, did, oid), no.Encode()); err != nil {
			return err
		}

		var total int64
		for i, l := range lines {
			iRow, err := tx.Get(c.items, key(kb[:0], l.iid))
			if err != nil {
				if errors.Is(err, engine.ErrNotFound) && rollback && i == olCnt-1 {
					return ErrUserAbort // spec: rollback on invalid item
				}
				return err
			}
			amount := int64(l.qty) * ItemRow(iRow).Price()
			total += amount

			sRow, err := tx.Get(c.stock, key(kb[:0], l.supplyW, l.iid))
			if err != nil {
				return err
			}
			st := StockRow(bytes.Clone(sRow))
			q := st.Quantity() - int32(l.qty)
			if q < 10 {
				q += 91
			}
			st.SetQuantity(q)
			st.SetYTD(st.YTD() + uint64(l.qty))
			st.SetOrderCnt(st.OrderCnt() + 1)
			if l.supplyW != w {
				st.SetRemoteCnt(st.RemoteCnt() + 1)
			}
			if err := tx.Update(c.stock, key(kb[:0], l.supplyW, l.iid), st); err != nil {
				return err
			}

			ol := OrderLine{
				OID: oid, DID: did, WID: w, Number: uint32(i + 1),
				IID: l.iid, SupplyWID: l.supplyW, Quantity: l.qty,
				Amount: amount, DistInfo: string(st.Dist(int(did-1) % 10)),
			}
			if err := tx.Insert(c.orderline, key(kb[:0], w, did, oid, uint32(i+1)), ol.Encode()); err != nil {
				return err
			}
		}
		_ = total * int64((1+wTax+district.Tax())*(1-discount)*10000) // order total, returned to the client in a full system

		return tx.Commit()
	})
}

// keyBuf is one attempt's scratch for the keys it builds (key(kb[:0], …)):
// the engine copies every key it keeps, so none needs its own allocation. It
// holds both bounds of a scan: the lower in kb[:16], the upper in kb[16:].
type keyBuf [32]byte

// lookupCustomer resolves a customer by id (40%) or last name (60%) and
// returns a view of its stored row. Used by Payment & OrderStatus.
func (c *Client) lookupCustomer(tx *engine.Txn, r *rng.Rand, w, d uint32, kb *keyBuf) (CustomerRow, error) {
	if r.IntRange(1, 100) <= 40 {
		cid := uint32(r.NURand(1023, 1, c.cfg.Customers))
		return tx.Get(c.customers, key(kb[:0], w, d, cid))
	}
	last := rng.LastName(r.NURand(255, 0, lastNameMax(c.cfg.Customers)))
	prefix := keys.String(key(kb[:0], w, d), last)
	rows := make([]CustomerRow, 0, 8)
	err := tx.ScanIndex(c.customers, IdxCustomerByName, prefix, keys.PrefixEnd(prefix),
		func(_, row []byte) bool {
			rows = append(rows, row)
			return true
		})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, engine.ErrNotFound
	}
	// Spec: position n/2 rounded up in first-name order (scan order).
	return rows[(len(rows)-1)/2], nil
}

// lastNameMax bounds the last-name number by what the loader generated for
// scaled-down districts.
func lastNameMax(customersPerDistrict int) int {
	if customersPerDistrict >= 1000 {
		return 999
	}
	return customersPerDistrict - 1
}

// Payment runs the Payment transaction for the given home warehouse.
func (c *Client) Payment(ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	did := uint32(r.IntRange(1, c.cfg.Districts))
	amount := int64(r.IntRange(100, 500000)) // 1.00..5000.00 in cents
	// 85% local customer; 15% remote (the mixed-warehouse share the paper
	// cites in §6.1).
	cw, cd := w, did
	if c.cfg.Warehouses > 1 && r.IntRange(1, 100) > 85 {
		cw = c.randomRemoteWID(r, w)
		cd = uint32(r.IntRange(1, c.cfg.Districts))
	}

	return retry(func() error {
		tx := c.e.Begin(ctx)
		defer tx.Abort()
		var kb keyBuf

		wRow, err := tx.Get(c.warehouses, key(kb[:0], w))
		if err != nil {
			return err
		}
		wh := WarehouseRow(bytes.Clone(wRow))
		wh.SetYTD(wh.YTD() + amount)
		if err := tx.Update(c.warehouses, key(kb[:0], w), wh); err != nil {
			return err
		}

		dRow, err := tx.Get(c.districts, key(kb[:0], w, did))
		if err != nil {
			return err
		}
		district := DistrictRow(bytes.Clone(dRow))
		district.SetYTD(district.YTD() + amount)
		if err := tx.Update(c.districts, key(kb[:0], w, did), district); err != nil {
			return err
		}

		cRow, err := c.lookupCustomer(tx, r, cw, cd, &kb)
		if err != nil {
			return err
		}
		cust := CustomerRow(bytes.Clone(cRow))
		cid, cdid, cwid := cust.ID(), cust.DID(), cust.WID()
		cust.SetBalance(cust.Balance() - amount)
		cust.SetYTDPayment(cust.YTDPayment() + amount)
		cust.SetPaymentCnt(cust.PaymentCnt() + 1)
		if string(cust.Credit()) == "BC" {
			// The one update that changes a row's length: re-encode it.
			bc := DecodeCustomer(cust)
			bc.Data = fmt.Sprintf("%d %d %d %d %d %d|%s", cid, cdid, cwid, did, w, amount, bc.Data)
			if len(bc.Data) > 500 {
				bc.Data = bc.Data[:500]
			}
			cust = bc.Encode()
		}
		if err := tx.Update(c.customers, key(kb[:0], cwid, cdid, cid), cust); err != nil {
			return err
		}

		h := History{
			CID: cid, CDID: cdid, CWID: cwid, DID: did, WID: w,
			Amount: amount, Data: string(wh.Name()) + "    " + string(district.Name()),
		}
		seq := c.hseq.Add(1)
		if err := tx.Insert(c.history, keys.Uint64(key(kb[:0], cwid, cdid, cid), 1<<32+seq), h.Encode()); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// OrderStatus runs the Order-Status transaction (read-only).
func (c *Client) OrderStatus(ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	did := uint32(r.IntRange(1, c.cfg.Districts))
	return retry(func() error {
		tx := c.e.Begin(ctx)
		defer tx.Abort()
		var kb keyBuf

		cust, err := c.lookupCustomer(tx, r, w, did, &kb)
		if err != nil {
			return err
		}
		// Newest order: first hit of a descending scan over the
		// by-customer index.
		prefix := key(kb[:0], w, did, cust.ID())
		var latest OrderRow
		err = tx.ScanIndexDesc(c.orders, IdxOrdersByCustomer, prefix, keys.PrefixEnd(prefix),
			func(_, row []byte) bool {
				latest = row
				return false
			})
		if err != nil {
			return err
		}
		if latest != nil {
			oid := latest.ID()
			if err := tx.Scan(c.orderline, key(kb[:0], w, did, oid, 0), key(kb[16:16], w, did, oid+1, 0),
				func(_, row []byte) bool {
					_ = OrderLineRow(row).Amount() // the lines are returned to the client in a full system
					return true
				}); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
}

// Delivery runs the Delivery transaction: deliver the oldest undelivered
// order in every district of the warehouse.
func (c *Client) Delivery(ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	carrier := uint32(r.IntRange(1, 10))
	return retry(func() error {
		tx := c.e.Begin(ctx)
		defer tx.Abort()
		var kb keyBuf
		var lines []OrderLineRow
		for d := 1; d <= c.cfg.Districts; d++ {
			did := uint32(d)
			// Oldest new_order in this district.
			var oldest NewOrderView
			if err := tx.Scan(c.neworder, key(kb[:0], w, did, 0), key(kb[16:16], w, did+1, 0),
				func(_, row []byte) bool {
					oldest = row
					return false // first = oldest
				}); err != nil {
				return err
			}
			if oldest == nil {
				continue // district fully delivered
			}
			oid := oldest.OID()
			if err := tx.Delete(c.neworder, key(kb[:0], w, did, oid)); err != nil {
				return err
			}

			oRow, err := tx.Get(c.orders, key(kb[:0], w, did, oid))
			if err != nil {
				return err
			}
			ord := OrderRow(bytes.Clone(oRow))
			ord.SetCarrierID(carrier)
			if err := tx.Update(c.orders, key(kb[:0], w, did, oid), ord); err != nil {
				return err
			}

			lines = lines[:0]
			if err := tx.Scan(c.orderline, key(kb[:0], w, did, oid, 0), key(kb[16:16], w, did, oid+1, 0),
				func(_, row []byte) bool {
					lines = append(lines, row)
					return true
				}); err != nil {
				return err
			}
			var sum int64
			for _, row := range lines {
				ol := OrderLineRow(bytes.Clone(row))
				sum += ol.Amount()
				ol.SetDeliveryD(1)
				if err := tx.Update(c.orderline, key(kb[:0], w, did, oid, ol.Number()), ol); err != nil {
					return err
				}
			}

			cRow, err := tx.Get(c.customers, key(kb[:0], w, did, ord.CID()))
			if err != nil {
				return err
			}
			cust := CustomerRow(bytes.Clone(cRow))
			cust.SetBalance(cust.Balance() + sum)
			cust.SetDeliveryCnt(cust.DeliveryCnt() + 1)
			if err := tx.Update(c.customers, key(kb[:0], w, did, ord.CID()), cust); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
}

// StockLevel runs the Stock-Level transaction (read-only).
func (c *Client) StockLevel(ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	did := uint32(r.IntRange(1, c.cfg.Districts))
	threshold := int32(r.IntRange(10, 20))
	return retry(func() error {
		tx := c.e.Begin(ctx)
		defer tx.Abort()
		var kb keyBuf

		dRow, err := tx.Get(c.districts, key(kb[:0], w, did))
		if err != nil {
			return err
		}
		nextOID := DistrictRow(dRow).NextOID()

		lowOID := uint32(0)
		if nextOID > 20 {
			lowOID = nextOID - 20
		}
		seen := make(map[uint32]struct{})
		if err := tx.Scan(c.orderline, key(kb[:0], w, did, lowOID, 0), key(kb[16:16], w, did, nextOID, 0),
			func(_, row []byte) bool {
				seen[OrderLineRow(row).IID()] = struct{}{}
				return true
			}); err != nil {
			return err
		}
		low := 0
		for iid := range seen {
			sRow, err := tx.Get(c.stock, key(kb[:0], w, iid))
			if err != nil {
				return err
			}
			if StockRow(sRow).Quantity() < threshold {
				low++
			}
		}
		_ = low
		return tx.Commit()
	})
}

// MixOutcome names one standard-mix transaction type.
type MixOutcome uint8

// Standard-mix transaction types.
const (
	TxNewOrder MixOutcome = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

func (m MixOutcome) String() string {
	switch m {
	case TxNewOrder:
		return "NewOrder"
	case TxPayment:
		return "Payment"
	case TxOrderStatus:
		return "OrderStatus"
	case TxDelivery:
		return "Delivery"
	case TxStockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("MixOutcome(%d)", uint8(m))
	}
}

// PickMix draws a transaction type with the spec's standard mix:
// 45% NewOrder, 43% Payment, 4% each of the rest.
func PickMix(r *rng.Rand) MixOutcome {
	switch x := r.IntRange(1, 100); {
	case x <= 45:
		return TxNewOrder
	case x <= 88:
		return TxPayment
	case x <= 92:
		return TxOrderStatus
	case x <= 96:
		return TxDelivery
	default:
		return TxStockLevel
	}
}

// Run executes one transaction of the given type on warehouse w.
func (c *Client) Run(kind MixOutcome, ctx *pcontext.Context, r *rng.Rand, w uint32) error {
	switch kind {
	case TxNewOrder:
		return c.NewOrder(ctx, r, w)
	case TxPayment:
		return c.Payment(ctx, r, w)
	case TxOrderStatus:
		return c.OrderStatus(ctx, r, w)
	case TxDelivery:
		return c.Delivery(ctx, r, w)
	case TxStockLevel:
		return c.StockLevel(ctx, r, w)
	default:
		return fmt.Errorf("tpcc: unknown transaction kind %v", kind)
	}
}
