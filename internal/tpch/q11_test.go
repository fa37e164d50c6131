package tpch

import (
	"reflect"
	"testing"

	"preemptdb/internal/rng"
)

func TestQ11MatchesReference(t *testing.T) {
	c := loadedClient(t)
	r := rng.New(77)
	nonEmpty := 0
	for i := 0; i < 10; i++ {
		p := RandomQ11Params(r)
		got, err := c.Q11(nil, p)
		if err != nil {
			t.Fatalf("q11(%+v): %v", p, err)
		}
		want := c.Q11Reference(p)
		if len(want) == 0 {
			want = nil
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q11(%+v): got %d rows want %d", p, len(got), len(want))
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all Q11 parameterizations returned empty results")
	}
}

func TestQ11OrderingAndHaving(t *testing.T) {
	c := loadedClient(t)
	p := Q11Params{Nation: "CHINA", Fraction: 0.0}
	rows, err := c.Q11(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Value < rows[i].Value {
			t.Fatalf("order violated at %d", i)
		}
		if rows[i].Value <= 0 {
			t.Fatalf("non-positive group value %d", rows[i].Value)
		}
	}
	// A high fraction must shrink the result set.
	strict, err := c.Q11(nil, Q11Params{Nation: "CHINA", Fraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) >= len(rows) && len(rows) > 0 {
		t.Fatalf("HAVING did not filter: %d vs %d", len(strict), len(rows))
	}
}

func TestQ11UnknownNation(t *testing.T) {
	c := loadedClient(t)
	if _, err := c.Q11(nil, Q11Params{Nation: "ATLANTIS", Fraction: 0.1}); err == nil {
		t.Fatal("unknown nation accepted")
	}
}

func TestQ11ReadOnly(t *testing.T) {
	c := loadedClient(t)
	before := c.e.Log().LSN()
	if _, err := c.Q11(nil, Q11Params{Nation: "FRANCE", Fraction: 0.001}); err != nil {
		t.Fatal(err)
	}
	if c.e.Log().LSN() != before {
		t.Fatal("Q11 wrote to the log")
	}
}

func BenchmarkQ11(b *testing.B) {
	c := loadedAt(b, ledgerScale)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Q11(nil, RandomQ11Params(r)); err != nil {
			b.Fatal(err)
		}
	}
}
