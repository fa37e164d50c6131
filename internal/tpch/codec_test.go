package tpch

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"preemptdb/internal/engine"
	"preemptdb/internal/pcontext"
)

// edge widens quick's random rows with the values a layout gets wrong first:
// empty strings, a string long enough for a two-byte length, 0 and max.
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
// encoding has exactly the length New computed (no spare capacity), and each
// view accessor equals the struct field.
func TestCodecProperties(t *testing.T) {
	eq := func(b []byte, s string) bool { return string(b) == s }
	n := 0
	check := func(f any) {
		t.Helper()
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	check(func(x Region) bool {
		n++
		edge(n, &x.Comment, &x.Key, new(int64))
		b := x.Encode()
		r := RegionRow(b)
		return DecodeRegion(b) == x && len(b) == cap(b) &&
			r.Key() == x.Key && eq(r.Name(), x.Name) && eq(r.Comment(), x.Comment)
	})
	check(func(x Nation) bool {
		n++
		edge(n, &x.Comment, &x.RegionKey, new(int64))
		b := x.Encode()
		r := NationRow(b)
		return DecodeNation(b) == x && len(b) == cap(b) && r.Key() == x.Key &&
			r.RegionKey() == x.RegionKey && eq(r.Name(), x.Name) && eq(r.Comment(), x.Comment)
	})
	check(func(x Supplier) bool {
		n++
		edge(n, &x.Comment, &x.NationKey, &x.AcctBal)
		b := x.Encode()
		r := SupplierRow(b)
		return DecodeSupplier(b) == x && len(b) == cap(b) && r.Key() == x.Key &&
			r.NationKey() == x.NationKey && r.AcctBal() == x.AcctBal && eq(r.Name(), x.Name) &&
			eq(r.Address(), x.Address) && eq(r.Phone(), x.Phone) && eq(r.Comment(), x.Comment)
	})
	check(func(x Part, suffix string) bool {
		n++
		edge(n, &x.Comment, &x.Size, &x.RetailPrice)
		b := x.Encode()
		r := PartRow(b)
		return DecodePart(b) == x && len(b) == cap(b) && r.Key() == x.Key && r.Size() == x.Size &&
			r.RetailPrice() == x.RetailPrice && eq(r.Name(), x.Name) && eq(r.Mfgr(), x.Mfgr) &&
			eq(r.Brand(), x.Brand) && eq(r.Type(), x.Type) && eq(r.Container(), x.Container) &&
			eq(r.Comment(), x.Comment) &&
			r.TypeHasSuffix(suffix) == strings.HasSuffix(x.Type, suffix) &&
			r.TypeHasSuffix(x.Type[len(x.Type)/2:]) && r.TypeHasSuffix("")
	})
	check(func(x PartSupp) bool {
		n++
		edge(n, &x.Comment, &x.AvailQty, &x.SupplyCost)
		b := x.Encode()
		r := PartSuppRow(b)
		return DecodePartSupp(b) == x && len(b) == cap(b) && r.PartKey() == x.PartKey &&
			r.SuppKey() == x.SuppKey && r.AvailQty() == x.AvailQty &&
			r.SupplyCost() == x.SupplyCost && eq(r.Comment(), x.Comment)
	})
}

// TestQ2ResultOwnsItsStrings: Q2 works on views that alias stored rows, but
// what it returns must not — overwrite every supplier, part and nation row
// through ordinary committed Updates and the earlier result is unchanged. In
// safe Go string(b) copies, so this holds by construction; the test is there
// for the day someone reaches for unsafe.String or an in-place update.
func TestQ2ResultOwnsItsStrings(t *testing.T) {
	c := loadedClient(t)
	p := Q2Params{Size: 0, Region: "EUROPE"}
	var rows []Q2Row
	for p.Size = 1; len(rows) == 0; p.Size++ {
		var err error
		if rows, err = c.Q2(nil, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Q2Row, len(rows))
	for i, r := range rows {
		want[i] = Q2Row{r.AcctBal, strings.Clone(r.SuppName), strings.Clone(r.Nation),
			r.PartKey, strings.Clone(r.Mfgr), r.Cost}
	}

	tx := c.e.Begin(nil)
	for _, tab := range []*engine.Table{c.suppliers, c.parts, c.nations} {
		var ks, vs [][]byte
		if err := tx.Scan(tab, nil, nil, func(k, v []byte) bool {
			ks, vs = append(ks, append([]byte(nil), k...)), append(vs, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			poison := make([]byte, len(vs[i]))
			for j := range poison {
				poison[j] = '#'
			}
			if err := tx.Update(tab, k, poison); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("Q2 result changed under later updates:\n got %+v\nwant %+v", truncate(rows), truncate(want))
	}
}

// TestQ2CancelAnywhere cancels Q2 at its k-th record access, for every k up
// to the query's end: inside the outer scan, inside the nested block of the
// first, second, … qualifying part (its partsupp scan and both joins), and
// past the last. Wherever the cancel lands, Q2 returns ErrCanceled and no
// rows. (The nested block used to drop its scan's error and treat a canceled
// Get as "supplier not found", leaving it to the outer scan's next lifecycle
// check to notice; it now unwinds from where the error was returned.)
func TestQ2CancelAnywhere(t *testing.T) {
	c := loadedClient(t)
	p := Q2Params{Size: 0, Region: "EUROPE"}
	for p.Size = 1; len(c.Q2Reference(p)) < 2; p.Size++ { // at least two nested blocks
	}
	run := func(cancelAt uint64) (rows []Q2Row, err error, polls uint64) {
		core := pcontext.NewCore(0, 1)
		core.SetPollHook(func(cur *pcontext.Context) {
			if polls++; polls == cancelAt {
				cur.Cancel()
			}
		})
		done := make(chan struct{})
		core.Start([]func(*pcontext.Context){func(ctx *pcontext.Context) {
			defer close(done)
			rows, err = c.Q2(ctx, p, 0)
		}})
		<-done
		core.Shutdown()
		return rows, err, polls
	}
	want, err, total := run(0)
	if err != nil || len(want) < 2 {
		t.Fatalf("uncanceled run: %d rows, err %v", len(want), err)
	}
	for k := uint64(1); k <= total; k++ {
		rows, err, _ := run(k)
		if err == nil && reflect.DeepEqual(rows, want) {
			continue // landed after the last lifecycle check: a complete result
		}
		if !errors.Is(err, pcontext.ErrCanceled) || rows != nil {
			t.Fatalf("cancel at poll %d of %d: %d rows, err %v; want no rows, ErrCanceled", k, total, len(rows), err)
		}
	}
}
