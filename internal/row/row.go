// Package row is the encoded row format the TPC-C and TPC-H schemas share
// (DESIGN.md "Row layout and views"): the fixed-width fields first,
// little-endian at constant offsets, then the strings, each behind a uvarint
// length. A schema's typed view (tpch.PartRow, tpcc.StockRow, …) names the
// offsets; these helpers are the only code that reads or writes the bytes.
package row

import (
	"encoding/binary"
	"math"
)

// U32 reads the uint32 at off.
func U32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

// U64 reads the uint64 at off.
func U64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// I64 reads the int64 at off.
func I64(b []byte, off int) int64 { return int64(U64(b, off)) }

// F64 reads the float64 at off.
func F64(b []byte, off int) float64 { return math.Float64frombits(U64(b, off)) }

// Put32 writes v at off.
func Put32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

// Put64 writes v at off.
func Put64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// PutF64 writes v at off.
func PutF64(b []byte, off int, v float64) { Put64(b, off, math.Float64bits(v)) }

// Str returns string number i of the tail that starts at offset fixed. The
// result aliases b.
func Str(b []byte, fixed, i int) []byte {
	b = b[fixed:]
	for {
		n, w := binary.Uvarint(b)
		if i == 0 {
			return b[w : w+int(n)]
		}
		b = b[w+int(n):]
		i--
	}
}

// New allocates a row of exactly its encoded length: fixed zero bytes for the
// caller to fill, then strs.
func New(fixed int, strs ...string) []byte {
	n := fixed
	for _, s := range strs {
		n += len(s) + 1
		for l := len(s); l >= 0x80; l >>= 7 {
			n++
		}
	}
	b := make([]byte, fixed, n)
	for _, s := range strs {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}
