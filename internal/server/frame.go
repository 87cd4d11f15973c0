package server

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	// maxToken is the longest rendered integer with its separator:
	// "-9223372036854775808,".
	maxToken = 21
	// overshoot is how far past its maxToken bytes a token's word
	// stores may reach: a memoized token is copied as three words, 24
	// bytes, whatever its length.
	overshoot = 3
	// runBelow bounds the values that may start a run (see
	// appendInt64s): at most 16 digits, which is two words to store
	// again, and far enough from MaxInt64 that base+9999 cannot wrap.
	runBelow = 1e16
	// runBackoff is how many run-eligible values are rendered in full,
	// with no run attempt, after an attempt that ended at once.
	runBackoff = 16
	// memoBits sizes the memo of long tokens: 1<<memoBits slots.
	memoBits = 3
	// ascii turns eight digit bytes into their characters, and back.
	ascii = 0x3030303030303030
)

// quads[v] holds the four ASCII digits of v < 10^4, zero-padded, the
// most significant in the low byte: one little-endian store writes them
// in reading order. It is the encoder's only source of digits.
var quads = func() (t [1e4]uint32) {
	for v := range t {
		t[v] = uint32('0'+v/1000) | uint32('0'+v/100%10)<<8 | uint32('0'+v/10%10)<<16 | uint32('0'+v%10)<<24
	}
	return t
}()

// eight returns the eight characters of u < 10^8, zero-padded, in the
// order quads keeps them, and how many of them are leading zeros — at
// most seven: zero keeps one digit.
func eight(u uint32) (uint64, int) {
	hi := u / 1e4
	h := uint64(quads[hi]) | uint64(quads[u-hi*1e4])<<32
	return h, bits.TrailingZeros64(h^ascii|1<<56) >> 3
}

// put stores x at b[i:i+8], little-endian. The full slice expression
// spares the compiler the pointer mask an open-ended b[i:] needs.
func put(b []byte, i int, x uint64) { binary.LittleEndian.PutUint64(b[i:i+8:i+8], x) }

// get loads the word put stores.
func get(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8 : i+8]) }

// memoToken is the rendered token of v, from its sign to its
// separator: n bytes, in the low bytes of w's three words. An empty
// slot holds v = 0, which no lookup asks for: only |v| ≥ 10^8 do.
type memoToken struct {
	v int64
	n int
	w [3]uint64
}

// memoSlot is the memo slot of v: the top bits of a Fibonacci hash.
func memoSlot(v int64) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> (64 - memoBits) }

// appendInt64s renders a JSON array of integers, byte for byte what
// strconv.AppendInt and a comma per value would. It reserves the worst
// case (maxToken bytes a value) once and writes in place, with no
// per-value append and no scratch: a value is assembled from 4-digit
// groups of quads (two for eight digits, four for sixteen, five for the
// rest), its leading zeros are counted and shifted out, and it is
// stored as whole words — the next token overwrites what a word carries
// past its own.
//
// A value v in [10^4, runBelow) starts a run: the values that follow
// and differ from it only in the last four digits (v' - base < 10^4,
// base being v with them zeroed) — an equal run, consecutive row
// numbers, a narrow walk, a line — store v's words again and rewrite
// those four digits from one quad, instead of dividing; a token that
// fits one word with its separator is one store. A value in [100, 10^4)
// starts a run on its last two digits the same way. The words stay in
// registers; a run never reads back what it wrote. A run that ends at
// once makes the next runBackoff values that could start one skip the
// attempt, so data without runs does not pay a mispredicted branch per
// value.
//
// A value of nine or more digits first looks for its token in a
// direct-mapped memo on the stack, so a column of a few long codes
// copies three words per value. A hit starts no run; a miss renders
// the token and reads its three words back into the memo.
func appendInt64s(buf []byte, vs []int64) []byte {
	w := len(buf)
	need := 2 + maxToken*len(vs) + overshoot
	buf = slices.Grow(buf, need)
	b := buf[:w+need]
	b[w] = '['
	w++
	var memo [1 << memoBits]memoToken
	backoff := 0
	for i := 0; i < len(vs); {
		v := vs[i]
		i++
		start := w
		u := uint64(v)
		if v < 0 {
			b[w] = '-'
			w++
			u = -u
		}
		var m *memoToken
		if u >= 1e8 {
			m = &memo[memoSlot(v)]
			if m.v == v {
				put(b, start, m.w[0])
				put(b, start+8, m.w[1])
				put(b, start+16, m.w[2])
				w = start + m.n
				continue
			}
		}
		var (
			n      int    // the digit count
			h0, h1 uint64 // the first eight characters and the last eight
		)
		switch {
		case u < 1e8:
			var lead int
			h0, lead = eight(uint32(u))
			n, h0 = 8-lead, h0>>(8*uint(lead))
			h1 = h0
			put(b, w, h0)
		case u < 1e16:
			top := u / 1e8
			var lead int
			h0, lead = eight(uint32(top))
			h1, _ = eight(uint32(u - top*1e8))
			n, h0 = 16-lead, h0>>(8*uint(lead))
			put(b, w, h0)
			put(b, w+n-8, h1)
		default:
			top := u / 1e16 // < 1845: four zeros, then its own quad
			low := u - top*1e16
			mid := low / 1e8
			h := uint64(quads[top])<<32 | ascii&0xffffffff
			lead := bits.TrailingZeros64(h^ascii) >> 3
			n = 24 - lead
			put(b, w, h>>(8*uint(lead)))
			h0, _ = eight(uint32(mid))
			h1, _ = eight(uint32(low - mid*1e8))
			put(b, w+n-16, h0)
			put(b, w+n-8, h1)
		}
		b[w+n] = ','
		w += n + 1
		if m != nil {
			*m = memoToken{v, w - start, [3]uint64{get(b, start), get(b, start+8), get(b, start+16)}}
		}
		if v < 100 || v >= runBelow {
			continue
		}
		if backoff > 0 {
			backoff--
			continue
		}
		var k int
		if v < 1e4 {
			// The last two digits, from the low half of a quad.
			sh := 8 * uint(n-2)
			k, w = wordRun(b, w, vs[i:], v-v%100, 100, h0&(1<<sh-1)|','<<(8*uint(n)), 16, sh, n+1)
		} else if n <= 7 {
			// The token and its separator fit one word.
			sh := 8 * uint(n-4)
			k, w = wordRun(b, w, vs[i:], v-v%1e4, 1e4, h0&(1<<sh-1)|','<<(8*uint(n)), 0, sh, n+1)
		} else {
			k, w = wordsRun(b, w, vs[i:], v-v%1e4, h0, h1, n)
		}
		i += k
		if k == 0 {
			backoff = runBackoff
		}
	}
	if len(vs) > 0 {
		w-- // the last comma becomes the bracket
	}
	b[w] = ']'
	return buf[:w+1]
}

// wordRun writes the run at the head of vs, the values v with
// d = v - base < unit, each as the one word p with the digits of d —
// quads[d] less its low drop bits — shifted in at sh, size bytes apart
// from b[w:]. It returns the run's length and the offset past it. It
// is not inlined, so that its loop keeps its state in registers.
//
//go:noinline
func wordRun(b []byte, w int, vs []int64, base int64, unit, p uint64, drop, sh uint, size int) (int, int) {
	for k, v := range vs {
		d := uint64(v - base)
		if d >= unit {
			return k, w
		}
		put(b, w, p|uint64(quads[d]>>(drop&31))<<(sh&63))
		w += size
	}
	return len(vs), w
}

// wordsRun is wordRun for tokens of n in [8, 16] digits, whose first
// eight characters are h0 and last eight h1: three words a value, the
// last carrying the four new digits and the separator.
//
//go:noinline
func wordsRun(b []byte, w int, vs []int64, base int64, h0, h1 uint64, n int) (int, int) {
	for k, v := range vs {
		d := uint64(v - base)
		if d >= 1e4 {
			return k, w
		}
		put(b, w, h0)
		put(b, w+n-8, h1)
		put(b, w+n-4, uint64(quads[d])|','<<32)
		w += n + 1
	}
	return len(vs), w
}
