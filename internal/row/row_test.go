package row

import (
	"strings"
	"testing"
)

// TestNewExactLength: New sizes the row exactly across the uvarint length
// boundaries, and Str finds every string behind prefixes of either width.
func TestNewExactLength(t *testing.T) {
	var strs []string
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		strs = append(strs, strings.Repeat("s", n))
	}
	b := New(12, strs...)
	if len(b) != cap(b) {
		t.Fatalf("len %d != cap %d", len(b), cap(b))
	}
	Put32(b, 0, 7)
	PutF64(b, 4, 0.25)
	if U32(b, 0) != 7 || F64(b, 4) != 0.25 || I64(b, 4) != int64(U64(b, 4)) {
		t.Fatal("fixed fields do not read back")
	}
	for i, s := range strs {
		if got := Str(b, 12, i); string(got) != s {
			t.Fatalf("string %d: len %d, want %d", i, len(got), len(s))
		}
	}
}
