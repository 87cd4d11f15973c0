package bitpack

import "fmt"

// BitWriter accumulates values bit-by-bit, least significant bit
// first, into a word stream. It backs the Elias codes and any other
// per-element variable-width encoding.
type BitWriter struct {
	words []uint64
	// nbits is the total number of bits written so far.
	nbits uint64
}

// NewBitWriter returns an empty writer with capacity for sizeHint
// bits.
func NewBitWriter(sizeHint int) *BitWriter {
	return &BitWriter{words: make([]uint64, 0, (sizeHint+63)/64)}
}

// WriteBits appends the w low bits of v. w must be at most 64.
func (bw *BitWriter) WriteBits(v uint64, w uint) {
	if w == 0 {
		return
	}
	v &= Mask(w)
	off := uint(bw.nbits & 63)
	if off == 0 {
		bw.words = append(bw.words, v)
	} else {
		bw.words[len(bw.words)-1] |= v << off
		if off+w > 64 {
			bw.words = append(bw.words, v>>(64-off))
		}
	}
	bw.nbits += uint64(w)
}

// WriteUnary appends q zero bits followed by a one bit — the unary
// prefix of the Elias gamma code.
func (bw *BitWriter) WriteUnary(q uint) {
	for q >= 63 {
		bw.WriteBits(0, 63)
		q -= 63
	}
	bw.WriteBits(1<<q, q+1)
}

// Words returns the backing word stream; the final word is
// zero-padded.
func (bw *BitWriter) Words() []uint64 { return bw.words }

// BitReader consumes a word stream produced by BitWriter.
type BitReader struct {
	words []uint64
	pos   uint64 // bit cursor
}

// NewBitReader returns a reader over words.
func NewBitReader(words []uint64) *BitReader {
	return &BitReader{words: words}
}

// ReadBits consumes and returns the next w bits. w must be at most 64.
func (br *BitReader) ReadBits(w uint) (uint64, error) {
	if w == 0 {
		return 0, nil
	}
	if br.pos+uint64(w) > uint64(len(br.words))*64 {
		return 0, fmt.Errorf("%w: bit read past end (pos %d, want %d bits, have %d)",
			ErrCorrupt, br.pos, w, uint64(len(br.words))*64)
	}
	word := br.pos >> 6
	off := uint(br.pos & 63)
	v := br.words[word] >> off
	if off+w > 64 {
		v |= br.words[word+1] << (64 - off)
	}
	br.pos += uint64(w)
	return v & Mask(w), nil
}

// ReadUnary consumes zero bits up to and including the terminating one
// bit and returns the count of zeros.
func (br *BitReader) ReadUnary() (uint, error) {
	var q uint
	for {
		b, err := br.ReadBits(1)
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return q, nil
		}
		q++
		if q > 64*uint(len(br.words)) {
			return 0, fmt.Errorf("%w: runaway unary code", ErrCorrupt)
		}
	}
}
