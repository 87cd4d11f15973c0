package bitpack

import (
	"encoding/binary"
	"fmt"
)

// VarintEncode encodes a signed column as zigzagged LEB128 varints.
// It realizes the byte-granularity end of the paper's variable-width
// spectrum: each element costs ⌈w/7⌉ bytes where w is its zigzagged
// bit width.
func VarintEncode(src []int64) []byte {
	out := make([]byte, 0, len(src))
	for _, v := range src {
		out = binary.AppendUvarint(out, Zigzag(v))
	}
	return out
}

// VarintDecode decodes len(dst) zigzagged LEB128 varints from data
// into dst.
func VarintDecode(dst []int64, data []byte) error {
	pos := 0
	for i := range dst {
		u, sz := binary.Uvarint(data[pos:])
		if sz <= 0 {
			return fmt.Errorf("%w: varint %d of %d at byte %d", ErrCorrupt, i, len(dst), pos)
		}
		dst[i] = Unzigzag(u)
		pos += sz
	}
	return nil
}

// VarintEncodeUnsigned encodes a non-negative column without the
// zigzag step (for monotone position columns whose values are known
// non-negative, the zigzag doubling would waste a bit per element).
func VarintEncodeUnsigned(src []int64) ([]byte, error) {
	out := make([]byte, 0, len(src))
	for i, v := range src {
		if v < 0 {
			return nil, fmt.Errorf("bitpack: VarintEncodeUnsigned: negative value %d at position %d", v, i)
		}
		out = binary.AppendUvarint(out, uint64(v))
	}
	return out, nil
}

// VarintDecodeUnsigned decodes len(dst) unsigned varints from data
// into dst.
func VarintDecodeUnsigned(dst []int64, data []byte) error {
	pos := 0
	for i := range dst {
		u, sz := binary.Uvarint(data[pos:])
		if sz <= 0 {
			return fmt.Errorf("%w: varint %d of %d at byte %d", ErrCorrupt, i, len(dst), pos)
		}
		dst[i] = int64(u)
		pos += sz
	}
	return nil
}
