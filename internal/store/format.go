package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/perm"
)

// The scgstore/v1 on-disk entry format. One file persists everything scgd
// needs to warm-start one (family, l, n) instance: the topology parameters,
// the rank-indexed exact distance table, and the distance histogram with
// its derived diameter/average-distance profile. All integers are
// little-endian.
//
//	offset size  field
//	0      8     magic "scgstore"
//	8      4     schema rev (uint32, currently 1)
//	12     4     flags (bit 0: compact uint8 dist backing; bit 1: retired)
//	16     8     meta section length   (uint64)
//	24     8     dist section length   (uint64)
//	32     8     retired section length (uint64, always 0)
//	40     4     k                     (uint32)
//	44     8     order = k!            (uint64)
//	52     -     meta section: famLen uint32, family name bytes, l uint32,
//	             n uint32, source int64, reachable int64, eccentricity
//	             uint32, histLen uint32, mean float64 bits, histLen int64
//	             histogram entries
//	·      -     dist section: order bytes (stored distance+1, compact) or
//	             order int32 words (wide)
//	end-4  4     CRC32-C of every preceding byte
//
// Flag bit 1 and the length at offset 32 belong to a retired section of
// k!·deg neighbor ranks, which no reader used: a search builds its
// columns from the generators. A file with bit 1 set, or any other flag
// this reader does not know, decodes to ErrSchema, so Load quarantines it
// and the key is rebuilt once.
//
// The schema rev participates in the content-address key (see KeyHash), so
// a format bump re-addresses every entry instead of reinterpreting old
// bytes; files left behind under the old rev are surfaced by the doctor's
// schema census and are quarantined (never fatal) if a reader meets one.
const (
	// Magic opens every entry file.
	Magic = "scgstore"
	// SchemaRev is the current format revision.
	SchemaRev = 1

	headerLen  = 52
	trailerLen = 4

	flagCompactDist = 1 << 0

	// maxFamilyLen and maxHistLen bound the variable-length meta fields so
	// a corrupt header cannot demand an absurd allocation before the CRC
	// check has a chance to reject the file.
	maxFamilyLen = 64
	maxHistLen   = 4096
)

// Sentinel decode failures. ErrCorrupt covers structural damage (bad magic,
// bad checksum, truncation, inconsistent sections); ErrSchema marks a
// well-formed file written under a different format revision or with a
// flag this reader does not know, the retired neighbor section's among
// them. Load quarantines both kinds.
var (
	ErrCorrupt = errors.New("store: corrupt entry")
	ErrSchema  = errors.New("store: unsupported format")
)

// Entry is one persisted instance: the topology parameters plus the
// materialized exact profile. The adjacency is not stored: it follows
// from the family's generators, and a search builds its own columns.
type Entry struct {
	Family string
	L, N   int
	K      int
	// Profile is the exact BFS profile from the identity; required.
	Profile *core.BFSResult
}

// AppendEntry encodes e in the scgstore/v1 format, appending to buf.
func AppendEntry(buf []byte, e *Entry) ([]byte, error) {
	if err := validateEntry(e); err != nil {
		return nil, err
	}
	order := perm.Factorial(e.K)
	hist := e.Profile.Histogram

	flags := uint32(0)
	var d8 []uint8
	var d32 []int32
	if raw, ok := e.Profile.Dist.RawCompact(); ok {
		flags |= flagCompactDist
		d8 = raw
	} else {
		d32, _ = e.Profile.Dist.RawWide()
	}

	metaLen := 4 + len(e.Family) + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8*len(hist)
	distLen := int(order)
	if d8 == nil {
		distLen = 4 * int(order)
	}

	start := len(buf)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaRev)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(metaLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(distLen))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // the retired section
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.K))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(order))

	// Meta section.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Family)))
	buf = append(buf, e.Family...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.L))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Profile.Source))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Profile.Reachable))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Profile.Eccentricity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hist)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Profile.Mean))
	for _, h := range hist {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h))
	}

	// Dist section.
	if d8 != nil {
		buf = append(buf, d8...)
	} else {
		for _, d := range d32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
	}

	buf = binary.LittleEndian.AppendUint32(buf, checksum(buf[start:]))
	return buf, nil
}

// validateEntry rejects entries the format cannot represent (or that would
// decode inconsistently).
func validateEntry(e *Entry) error {
	if e == nil || e.Profile == nil {
		return fmt.Errorf("store: entry needs a profile")
	}
	if e.Family == "" || len(e.Family) > maxFamilyLen {
		return fmt.Errorf("store: family name %q out of range (1..%d bytes)", e.Family, maxFamilyLen)
	}
	if e.L < 0 || e.N < 0 || e.L > math.MaxUint32 || e.N > math.MaxUint32 {
		return fmt.Errorf("store: l=%d n=%d out of range", e.L, e.N)
	}
	if e.K < 1 || e.K > core.MaxExplicitK {
		return fmt.Errorf("store: k=%d out of range [1, %d]", e.K, core.MaxExplicitK)
	}
	order := perm.Factorial(e.K)
	if int64(e.Profile.Dist.Len()) != order {
		return fmt.Errorf("store: dist table covers %d states, want %d (k=%d)", e.Profile.Dist.Len(), order, e.K)
	}
	if len(e.Profile.Histogram) == 0 || len(e.Profile.Histogram) > maxHistLen {
		return fmt.Errorf("store: histogram has %d buckets (1..%d)", len(e.Profile.Histogram), maxHistLen)
	}
	if e.Profile.Eccentricity != len(e.Profile.Histogram)-1 {
		return fmt.Errorf("store: eccentricity %d disagrees with histogram length %d", e.Profile.Eccentricity, len(e.Profile.Histogram))
	}
	return nil
}

// DecodeEntry parses and fully validates one scgstore/v1 file image. Any
// structural problem — short file, bad magic, checksum mismatch,
// inconsistent section lengths, out-of-range fields — returns ErrCorrupt
// (wrapped with the reason); a well-formed file under a different schema
// revision, or with a flag other than bit 0, returns ErrSchema.
// DecodeEntry never panics on arbitrary input (FuzzStoreDecode pins this).
func DecodeEntry(data []byte) (*Entry, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorrupt, len(data), headerLen+trailerLen)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	rev := binary.LittleEndian.Uint32(data[8:])
	if rev != SchemaRev {
		return nil, fmt.Errorf("%w: rev %d, reader speaks %d", ErrSchema, rev, SchemaRev)
	}
	// Verify the trailer before trusting any length field.
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := checksum(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, trailer says %08x", ErrCorrupt, got, want)
	}

	flags := binary.LittleEndian.Uint32(data[12:])
	if flags&^flagCompactDist != 0 {
		return nil, fmt.Errorf("%w: flags %#x; this reader knows bit 0 only (bit 1, the neighbor section, is retired)", ErrSchema, flags)
	}
	metaLen := binary.LittleEndian.Uint64(data[16:])
	distLen := binary.LittleEndian.Uint64(data[24:])
	retiredLen := binary.LittleEndian.Uint64(data[32:])
	k := int(binary.LittleEndian.Uint32(data[40:]))
	order := binary.LittleEndian.Uint64(data[44:])

	if k < 1 || k > core.MaxExplicitK {
		return nil, fmt.Errorf("%w: k=%d out of range [1, %d]", ErrCorrupt, k, core.MaxExplicitK)
	}
	if order != uint64(perm.Factorial(k)) {
		return nil, fmt.Errorf("%w: order %d, want %d! = %d", ErrCorrupt, order, k, perm.Factorial(k))
	}
	if retiredLen != 0 {
		return nil, fmt.Errorf("%w: %d bytes in the retired section", ErrCorrupt, retiredLen)
	}
	total := uint64(headerLen) + metaLen + distLen + trailerLen
	if metaLen > uint64(len(data)) || distLen > uint64(len(data)) || total != uint64(len(data)) {
		return nil, fmt.Errorf("%w: sections sum to %d bytes, file has %d", ErrCorrupt, total, len(data))
	}
	compact := flags&flagCompactDist != 0
	if wantDist := order; !compact {
		wantDist = 4 * order
		if distLen != wantDist {
			return nil, fmt.Errorf("%w: wide dist section is %d bytes, want %d", ErrCorrupt, distLen, wantDist)
		}
	} else if distLen != wantDist {
		return nil, fmt.Errorf("%w: compact dist section is %d bytes, want %d", ErrCorrupt, distLen, wantDist)
	}

	meta := data[headerLen : headerLen+metaLen]
	e := &Entry{K: k, Profile: &core.BFSResult{}}
	if err := decodeMeta(meta, e, int64(order)); err != nil {
		return nil, err
	}

	dist := data[headerLen+metaLen : headerLen+metaLen+distLen]
	if compact {
		raw := make([]uint8, order)
		copy(raw, dist)
		e.Profile.Dist = core.NewDistTableCompact(raw)
	} else {
		wide := make([]int32, order)
		decodeI32LE(wide, dist)
		e.Profile.Dist = core.NewDistTableWide(wide)
	}
	return e, nil
}

// decodeMeta parses the meta section into e.
func decodeMeta(meta []byte, e *Entry, order int64) error {
	if len(meta) < 4 {
		return fmt.Errorf("%w: meta section is %d bytes", ErrCorrupt, len(meta))
	}
	famLen := int(binary.LittleEndian.Uint32(meta))
	if famLen < 1 || famLen > maxFamilyLen || len(meta) < 4+famLen+40 {
		return fmt.Errorf("%w: family length %d does not fit a %d-byte meta section", ErrCorrupt, famLen, len(meta))
	}
	e.Family = string(meta[4 : 4+famLen])
	rest := meta[4+famLen:]
	e.L = int(binary.LittleEndian.Uint32(rest[0:]))
	e.N = int(binary.LittleEndian.Uint32(rest[4:]))
	e.Profile.Source = int64(binary.LittleEndian.Uint64(rest[8:]))
	e.Profile.Reachable = int64(binary.LittleEndian.Uint64(rest[16:]))
	e.Profile.Eccentricity = int(binary.LittleEndian.Uint32(rest[24:]))
	histLen := int(binary.LittleEndian.Uint32(rest[28:]))
	e.Profile.Mean = math.Float64frombits(binary.LittleEndian.Uint64(rest[32:]))
	if histLen < 1 || histLen > maxHistLen || len(rest) != 40+8*histLen {
		return fmt.Errorf("%w: histogram length %d does not fit a %d-byte meta section", ErrCorrupt, histLen, len(meta))
	}
	if e.Profile.Eccentricity != histLen-1 {
		return fmt.Errorf("%w: eccentricity %d disagrees with %d histogram buckets", ErrCorrupt, e.Profile.Eccentricity, histLen)
	}
	if e.Profile.Source < 0 || e.Profile.Source >= order {
		return fmt.Errorf("%w: source rank %d out of range (order %d)", ErrCorrupt, e.Profile.Source, order)
	}
	if e.Profile.Reachable < 0 || e.Profile.Reachable > order {
		return fmt.Errorf("%w: %d reachable states of %d", ErrCorrupt, e.Profile.Reachable, order)
	}
	e.Profile.Histogram = make([]int64, histLen)
	for i := range e.Profile.Histogram {
		e.Profile.Histogram[i] = int64(binary.LittleEndian.Uint64(rest[40+8*i:]))
	}
	if math.IsNaN(e.Profile.Mean) || math.IsInf(e.Profile.Mean, 0) || e.Profile.Mean < 0 {
		return fmt.Errorf("%w: mean distance %v", ErrCorrupt, e.Profile.Mean)
	}
	return nil
}

// decodeI32LE fills dst with little-endian 32-bit words from src, whose
// length must be at least 4·len(dst): the (defensive) wide distance
// backing.
func decodeI32LE(dst []int32, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[4*len(dst)-1]
	for i := range dst {
		o := 4 * i
		dst[i] = int32(uint32(src[o]) | uint32(src[o+1])<<8 | uint32(src[o+2])<<16 | uint32(src[o+3])<<24)
	}
}
