package bitpack

import (
	"fmt"
	"math/bits"
)

// The Elias delta code realizes the paper's bit-metric exactly: under
// d(x, y) = ⌈log2|x−y|+1⌉ the cost of an element is its own bit
// width, and a per-element variable-width code spends approximately
// that many bits (plus the logarithmic self-delimiting overhead).
//
// The code operates on non-negative values; the encoder adds one so
// that zero is representable (the classical codes start at 1).

// EliasDeltaEncode encodes each v ≥ 0 as delta(v+1): the bit length is
// itself gamma-coded, making large values cheaper than under gamma.
func EliasDeltaEncode(src []int64) ([]uint64, error) {
	bw := NewBitWriter(len(src) * 8)
	for i, v := range src {
		if v < 0 {
			return nil, fmt.Errorf("bitpack: EliasDeltaEncode: negative value %d at position %d (zigzag first)", v, i)
		}
		u := uint64(v) + 1
		nb := uint(bits.Len64(u))
		lb := uint(bits.Len64(uint64(nb)))
		bw.WriteUnary(lb - 1)
		bw.WriteBits(uint64(nb)&Mask(lb-1), lb-1)
		bw.WriteBits(u&Mask(nb-1), nb-1)
	}
	return bw.Words(), nil
}

// EliasDeltaDecode decodes len(dst) delta codes into dst.
func EliasDeltaDecode(dst []int64, words []uint64) error {
	br := NewBitReader(words)
	n := len(dst)
	for i := range dst {
		q, err := br.ReadUnary()
		if err != nil {
			return fmt.Errorf("delta code %d of %d: %w", i, n, err)
		}
		lenLow, err := br.ReadBits(q)
		if err != nil {
			return fmt.Errorf("delta code %d of %d: %w", i, n, err)
		}
		nb := uint((uint64(1) << q) | lenLow)
		if nb == 0 || nb > 64 {
			return fmt.Errorf("%w: delta code %d declares %d-bit value", ErrCorrupt, i, nb)
		}
		low, err := br.ReadBits(nb - 1)
		if err != nil {
			return fmt.Errorf("delta code %d of %d: %w", i, n, err)
		}
		dst[i] = int64(((uint64(1) << (nb - 1)) | low) - 1)
	}
	return nil
}
