package core

// DistTable is the compact distance map produced by the bitset engine.
// The distances of every topology we build fit in a byte (diameters stay
// well under 255 at k <= MaxExplicitK, and 0/1 distances are smaller
// still), so the table stores one uint8 per state — a 4x shrink versus
// the old []int32, which lets 4x more profiles fit the byte-budgeted LRU
// in internal/server. Only the (defensive) overflow fallback, unit or 0/1,
// keeps the wide int32 backing. Exactly one of d8/d32 is non-nil.
//
// The byte backing stores distance+1 so that the zero value of a freshly
// made([]uint8) slice already means "unreachable" (At returns -1): the
// engines skip the O(n) sentinel-fill pass that the int32 representation
// needs.
type DistTable struct {
	d8  []uint8
	d32 []int32
}

// u8DistLimit is the largest distance representable in the compact byte
// backing (255 encodes distance 254; 0 is reserved for "unreachable").
// It is a var, not a const, so the overflow-guard unit test can lower it
// and prove the fallback path without constructing a diameter-255 graph.
var u8DistLimit int32 = 254

// At returns the distance of state r, or -1 if unreachable.
func (t DistTable) At(r int64) int32 {
	if t.d8 != nil {
		return int32(t.d8[r]) - 1
	}
	return t.d32[r]
}

// Len returns the number of states covered by the table.
func (t DistTable) Len() int {
	if t.d8 != nil {
		return len(t.d8)
	}
	return len(t.d32)
}

// Bytes returns the approximate heap footprint of the backing array, used
// by the server's byte-budgeted cache accounting.
func (t DistTable) Bytes() int64 {
	if t.d8 != nil {
		return int64(len(t.d8))
	}
	return int64(len(t.d32)) * 4
}

// RawCompact returns the 1-byte backing array (entries store distance+1,
// 0 meaning unreachable) and whether the table is compact. The slice
// aliases the table; callers must not mutate it. It exists for
// internal/store, which persists the backing verbatim.
func (t DistTable) RawCompact() ([]uint8, bool) { return t.d8, t.d8 != nil }

// RawWide returns the int32 backing (true distances, -1 unreachable) and
// whether the table uses it. The slice aliases the table; callers must not
// mutate it.
func (t DistTable) RawWide() ([]int32, bool) { return t.d32, t.d32 != nil }

// NewDistTableCompact wraps a stored+1 byte backing (the RawCompact
// encoding) loaded from the persistent store. The caller transfers
// ownership of raw.
func NewDistTableCompact(raw []uint8) DistTable { return DistTable{d8: raw} }

// NewDistTableWide wraps an int32 distance slice (true distances, -1
// unreachable) loaded from the persistent store. The caller transfers
// ownership of d.
func NewDistTableWide(d []int32) DistTable { return DistTable{d32: d} }

// Int32Slice materializes the table as a plain []int32 with -1 for
// unreachable states. Compact tables are widened into a fresh slice;
// wide tables return their backing directly (callers must not mutate it).
func (t DistTable) Int32Slice() []int32 {
	if t.d8 == nil {
		return t.d32
	}
	out := make([]int32, len(t.d8))
	for i, v := range t.d8 {
		out[i] = int32(v) - 1
	}
	return out
}
