package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Hashing of complex-object values, used by the hash-based join family
// (hash join, hash semijoin/antijoin, hash nest join) and by grouping.
//
// The invariant is the usual one: Equal(a, b) ⇒ Hash(seed, a) == Hash(seed, b).
// Because sets and tuples are canonical, structural recursion is sufficient —
// no order-independent mixing is needed.

// Hash returns a 64-bit hash of v under the given seed.
func Hash(seed maphash.Seed, v Value) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	writeHash(&h, v)
	return h.Sum64()
}

func writeHash(h *maphash.Hash, v Value) {
	var tag [1]byte
	tag[0] = byte(v.kind)
	// Ints that are exactly representable as themselves and floats with an
	// integral value must hash alike because Compare treats 1 == 1.0.
	if v.kind == KindInt {
		tag[0] = byte(KindFloat)
		h.Write(tag[:])
		writeFloatBits(h, float64(v.i))
		return
	}
	h.Write(tag[:])
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			h.WriteByte(1)
		} else {
			h.WriteByte(0)
		}
	case KindFloat:
		writeFloatBits(h, v.f)
	case KindString:
		writeLen(h, len(v.s))
		h.WriteString(v.s)
	case KindTuple:
		writeLen(h, len(v.tuple))
		for _, f := range v.tuple {
			writeLen(h, len(f.Label))
			h.WriteString(f.Label)
			writeHash(h, f.V)
		}
	case KindSet, KindList:
		writeLen(h, len(v.elems))
		for _, e := range v.elems {
			writeHash(h, e)
		}
	}
}

func writeFloatBits(h *maphash.Hash, f float64) {
	// Normalize -0.0 to 0.0 and all NaNs to one pattern so that hashing is
	// consistent with Compare.
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = math.Float64bits(math.NaN())
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	h.Write(buf[:])
}

func writeLen(h *maphash.Hash, n int) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(n))
	h.Write(buf[:])
}

// Key returns a canonical string encoding of v suitable for use as a Go map
// key. Two values are Equal iff their Keys are identical. Used where exact
// (collision-free) grouping is required.
func Key(v Value) string {
	buf := make([]byte, 0, 64)
	buf = AppendKey(buf, v)
	return string(buf)
}

// AppendKey appends the canonical encoding of v (the same bytes Key returns)
// onto buf and returns the extended slice. The encoding is self-delimiting —
// every variable-length component is length-prefixed — so concatenated
// encodings of a fixed number of values stay injective. Hot paths (the hash
// join family) keep a scratch buffer per iterator and look up Go maps via
// string(buf), which the compiler compiles without allocating; only inserting
// a previously unseen key materializes a string.
func AppendKey(buf []byte, v Value) []byte { return appendKey(buf, &v) }

// appendKey is AppendKey over a pointer, so the recursion into tuple fields
// and set elements does not copy each Value.
func appendKey(buf []byte, v *Value) []byte {
	if v.kind == KindInt {
		// Same normalization as hashing: ints encode as floats.
		buf = append(buf, byte(KindFloat))
		return appendFloatBits(buf, float64(v.i))
	}
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindFloat:
		buf = appendFloatBits(buf, v.f)
	case KindString:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s)))
		buf = append(buf, v.s...)
	case KindTuple:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.tuple)))
		for i := range v.tuple {
			f := &v.tuple[i]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Label)))
			buf = append(buf, f.Label...)
			buf = appendKey(buf, &f.V)
		}
	case KindSet, KindList:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.elems)))
		for i := range v.elems {
			buf = appendKey(buf, &v.elems[i])
		}
	}
	return buf
}

// appendFloatBits appends f's bits, normalizing -0.0 to 0.0 and every NaN to
// one pattern so that keys agree with Compare.
func appendFloatBits(buf []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = math.Float64bits(math.NaN())
	}
	return binary.LittleEndian.AppendUint64(buf, bits)
}
