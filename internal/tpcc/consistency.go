package tpcc

import "fmt"

// CheckConsistency validates the TPC-C consistency conditions (spec §3.3.2,
// conditions 1–4) against the current committed state, returning the first
// violation found. It is the end-to-end correctness oracle for scheduling
// experiments: whatever the preemption machinery did, these invariants must
// hold afterwards.
//
//  1. W_YTD = Σ D_YTD                            (per warehouse)
//  2. D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) (per district)
//  3. NO_O_IDs are contiguous                    (per district)
//  4. Σ O_OL_CNT = count(order lines)            (per district)
func (c *Client) CheckConsistency() error {
	tx := c.e.Begin(nil)
	defer tx.Abort()

	for w := 1; w <= c.cfg.Warehouses; w++ {
		wid := uint32(w)
		wRow, err := tx.Get(c.warehouses, WarehouseKey(wid))
		if err != nil {
			return fmt.Errorf("tpcc: warehouse %d missing: %w", w, err)
		}
		wh := DecodeWarehouse(wRow)
		var ytdSum int64

		for d := 1; d <= c.cfg.Districts; d++ {
			did := uint32(d)
			dRow, err := tx.Get(c.districts, DistrictKey(wid, did))
			if err != nil {
				return fmt.Errorf("tpcc: district %d.%d missing: %w", w, d, err)
			}
			dist := DecodeDistrict(dRow)
			ytdSum += dist.YTD

			// Condition 2 + 4 scans.
			var maxOID uint32
			var olCntSum uint64
			if err := tx.Scan(c.orders, OrderKey(wid, did, 0), OrderKey(wid, did+1, 0),
				func(_, row []byte) bool {
					o := DecodeOrder(row)
					maxOID = o.ID
					olCntSum += uint64(o.OLCnt)
					return true
				}); err != nil {
				return err
			}
			if dist.NextOID != maxOID+1 {
				return fmt.Errorf("tpcc: condition 2 violated at %d.%d: next_o_id=%d max(o_id)=%d",
					w, d, dist.NextOID, maxOID)
			}

			// Condition 2 (new_order part) + 3.
			var noMin, noMax uint32
			var noCount int
			if err := tx.Scan(c.neworder, NewOrderKey(wid, did, 0), NewOrderKey(wid, did+1, 0),
				func(_, row []byte) bool {
					no := DecodeNewOrder(row)
					if noCount == 0 {
						noMin = no.OID
					}
					noMax = no.OID
					noCount++
					return true
				}); err != nil {
				return err
			}
			if noCount > 0 {
				if noMax != maxOID {
					return fmt.Errorf("tpcc: condition 2 violated at %d.%d: max(no_o_id)=%d max(o_id)=%d",
						w, d, noMax, maxOID)
				}
				if int(noMax-noMin)+1 != noCount {
					return fmt.Errorf("tpcc: condition 3 violated at %d.%d: [%d,%d] has %d rows",
						w, d, noMin, noMax, noCount)
				}
			}

			var olCount uint64
			if err := tx.Scan(c.orderline, OrderLineKey(wid, did, 0, 0), OrderLineKey(wid, did+1, 0, 0),
				func(_, _ []byte) bool {
					olCount++
					return true
				}); err != nil {
				return err
			}
			if olCntSum != olCount {
				return fmt.Errorf("tpcc: condition 4 violated at %d.%d: Σol_cnt=%d order lines=%d",
					w, d, olCntSum, olCount)
			}
		}
		if wh.YTD != ytdSum {
			return fmt.Errorf("tpcc: condition 1 violated at warehouse %d: w_ytd=%d Σd_ytd=%d",
				w, wh.YTD, ytdSum)
		}
	}
	return nil
}
