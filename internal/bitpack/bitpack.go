package bitpack

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// BlockLen is the number of values per packed block. At width w a
// block occupies exactly w 64-bit words.
const BlockLen = 64

// ErrWidth is returned when a bit width outside [0, 64] is requested.
var ErrWidth = errors.New("bitpack: width out of range [0, 64]")

// ErrOverflow is returned when a value does not fit in the requested
// width.
var ErrOverflow = errors.New("bitpack: value wider than requested width")

// ErrCorrupt is returned when a packed payload is shorter than its
// declared logical length requires.
var ErrCorrupt = errors.New("bitpack: packed payload too short")

// Width returns the number of bits needed to represent v: 0 for 0,
// otherwise ⌈log2(v+1)⌉.
func Width(v uint64) uint {
	return uint(bits.Len64(v))
}

// MaxWidth returns the width of the widest value in src (0 for an
// empty column).
func MaxWidth(src []uint64) uint {
	var m uint64
	for _, v := range src {
		m |= v
	}
	return Width(m)
}

// Mask returns a mask with the w low bits set. Mask(64) is all ones;
// Mask(0) is zero.
func Mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// PackedWords returns how many 64-bit words packing n values at width
// w occupies.
func PackedWords(n int, w uint) int {
	if n <= 0 || w == 0 {
		return 0
	}
	totalBits := uint64(n) * uint64(w)
	return int((totalBits + 63) / 64)
}

// Pack packs src at width w into a fresh word slice. Values wider
// than w are reported as ErrOverflow: packing never silently
// truncates. It is the checked form of PackSigned, which the NS
// scheme encodes through with a width taken from the same values,
// and the reference the tests hold PackSigned to.
func Pack(src []uint64, w uint) ([]uint64, error) {
	if w > 64 {
		return nil, fmt.Errorf("%w: %d", ErrWidth, w)
	}
	if w == 0 {
		for i, v := range src {
			if v != 0 {
				return nil, fmt.Errorf("%w: value %d at position %d, width 0", ErrOverflow, v, i)
			}
		}
		return []uint64{}, nil
	}
	mask := Mask(w)
	for i, v := range src {
		if v&^mask != 0 {
			return nil, fmt.Errorf("%w: value %d at position %d, width %d", ErrOverflow, v, i, w)
		}
	}
	dst := make([]uint64, PackedWords(len(src), w))
	packWords(dst, src, w)
	return dst, nil
}

// PackInto packs src at width w into dst, which must hold exactly
// PackedWords(len(src), w) words. It is the buffer-reusing form of
// Pack for callers (like the VNS compressor) that concatenate several
// packings into one preallocated payload. dst is fully overwritten.
func PackInto(dst, src []uint64, w uint) error {
	if w > 64 {
		return fmt.Errorf("%w: %d", ErrWidth, w)
	}
	if need := PackedWords(len(src), w); len(dst) != need {
		return fmt.Errorf("bitpack: PackInto dst holds %d words, need %d", len(dst), need)
	}
	if w == 0 {
		for i, v := range src {
			if v != 0 {
				return fmt.Errorf("%w: value %d at position %d, width 0", ErrOverflow, v, i)
			}
		}
		return nil
	}
	mask := Mask(w)
	for i, v := range src {
		if v&^mask != 0 {
			return fmt.Errorf("%w: value %d at position %d, width %d", ErrOverflow, v, i, w)
		}
	}
	clear(dst)
	packWords(dst, src, w)
	return nil
}

// packWords packs src at width w (1..64) into the PackedWords(len(src),
// w) zeroed words of dst: full blocks through the unrolled kernels, the
// tail bit by bit. Values are assumed pre-validated against the mask.
func packWords(dst, src []uint64, w uint) {
	kernel := packFuncs[w]
	i, out := 0, 0
	for ; i+BlockLen <= len(src); i += BlockLen {
		kernel(src[i:i+BlockLen], dst[out:out+int(w)])
		out += int(w)
	}
	if i < len(src) {
		packGeneric(src[i:], w, dst, uint64(i)*uint64(w))
	}
}

// SignedShape returns the width and zigzag flag null suppression packs
// src at, in one pass: zigzagged when some value is negative — the OR
// of the raw values then has its sign bit set — and raw otherwise, at
// the width of the widest value in that domain.
func SignedShape(src []int64) (w uint, zigzag bool) {
	var raw, zz uint64
	for _, v := range src {
		raw |= uint64(v)
		zz |= Zigzag(v)
	}
	if int64(raw) < 0 {
		return Width(zz), true
	}
	return Width(raw), false
}

// PackSigned packs src at width w into dst, zigzagging each value
// first when zigzag is set: the words Pack makes of the column mapped
// into that domain, without the mapped column. dst must hold
// PackedWords(len(src), w) zeroed words. Unzigzagged values are their
// own unsigned bits, so the kernels read src itself; zigzagged ones
// are mapped 64 at a time into stage, of at least BlockLen words, on
// their way to the kernels. Nothing is checked: every mapped value must
// fit w bits, as SignedShape's width guarantees.
func PackSigned(dst []uint64, src []int64, w uint, zigzag bool, stage []uint64) {
	if w == 0 {
		return
	}
	if !zigzag {
		packWords(dst, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(src))), len(src)), w)
		return
	}
	stage = stage[:BlockLen]
	kernel := packFuncs[w]
	i, out := 0, 0
	for ; i+BlockLen <= len(src); i += BlockLen {
		zigzagInto(stage, src[i:i+BlockLen])
		kernel(stage, dst[out:out+int(w)])
		out += int(w)
	}
	if tail := src[i:]; len(tail) > 0 {
		zigzagInto(stage, tail)
		packGeneric(stage[:len(tail)], w, dst, uint64(i)*uint64(w))
	}
}

// zigzagInto writes the zigzags of src into the front of dst.
func zigzagInto(dst []uint64, src []int64) {
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] = Zigzag(v)
	}
}

// UnpackInto expands len(dst) values of width w from packed into dst.
func UnpackInto(dst, packed []uint64, w uint) error {
	if w > 64 {
		return fmt.Errorf("%w: %d", ErrWidth, w)
	}
	n := len(dst)
	if w == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if len(packed) < PackedWords(n, w) {
		return fmt.Errorf("%w: have %d words, need %d for %d values at width %d",
			ErrCorrupt, len(packed), PackedWords(n, w), n, w)
	}
	i := 0
	in := 0
	for ; i+BlockLen <= n; i += BlockLen {
		unpack64(packed[in:in+int(w)], (*[BlockLen]uint64)(dst[i:]))
		in += int(w)
	}
	if i < n {
		unpackGeneric(dst[i:], packed, w, uint64(i)*uint64(w))
	}
	return nil
}

// ValueAt returns value i of the width-w payload without unpacking its
// neighbours — the random-access read of a gather. The caller
// guarantees w ≤ 64 and that packed holds at least i+1 values.
func ValueAt(packed []uint64, i int, w uint) uint64 {
	if w == 0 {
		return 0
	}
	bitPos := uint64(i) * uint64(w)
	word, off := bitPos>>6, uint(bitPos&63)
	v := packed[word] >> off
	if off+w > 64 {
		v |= packed[word+1] << (64 - off)
	}
	return v & Mask(w)
}

// packGeneric packs src at width w into dst starting at absolute bit
// offset bitPos. Values are assumed pre-validated against the mask.
func packGeneric(src []uint64, w uint, dst []uint64, bitPos uint64) {
	for _, v := range src {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		dst[word] |= v << off
		if off+w > 64 {
			dst[word+1] |= v >> (64 - off)
		}
		bitPos += uint64(w)
	}
}

// unpackGeneric unpacks len(dst) values of width w from src starting
// at absolute bit offset bitPos.
func unpackGeneric(dst []uint64, src []uint64, w uint, bitPos uint64) {
	mask := Mask(w)
	for i := range dst {
		word := bitPos >> 6
		off := uint(bitPos & 63)
		v := src[word] >> off
		if off+w > 64 {
			v |= src[word+1] << (64 - off)
		}
		dst[i] = v & mask
		bitPos += uint64(w)
	}
}

// Zigzag maps a signed value to an unsigned one with small absolute
// values mapping to small results: 0→0, -1→1, 1→2, -2→3, …
func Zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// UnzigzagInto writes the zigzag-decoded values of src into dst,
// which must have the same length.
func UnzigzagInto(dst []int64, src []uint64) {
	for i, v := range src {
		dst[i] = Unzigzag(v)
	}
}

// SignedInto reinterprets src as signed bit patterns into dst, which
// must have the same length.
func SignedInto(dst []int64, src []uint64) {
	for i, v := range src {
		dst[i] = int64(v)
	}
}
