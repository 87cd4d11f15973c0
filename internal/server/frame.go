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
	// overshoot is how far past a token and its separator the token's
	// last word store may reach: a lone digit is stored as eight bytes.
	overshoot = 6
	// runBelow bounds the values that may start a run (see
	// appendInt64s): at most 16 digits, which is two words to store
	// again, and far enough from MaxInt64 that base+99 cannot wrap.
	runBelow = 1e16
	// ascii turns eight digit bytes into their characters.
	ascii = 0x3030303030303030
)

// digitPairs[v] holds the two ASCII digits of v < 100, tens digit in
// the low byte: one little-endian 16-bit store writes both in order.
var digitPairs = func() (t [100]uint16) {
	for v := range t {
		t[v] = uint16('0'+v/10) | uint16('0'+v%10)<<8
	}
	return t
}()

// digits8 returns the eight decimal digits of u < 10^8, zero-padded,
// one per byte with the most significant in the low byte — so that a
// little-endian store writes them in reading order. The value is split
// in halves three times, every half of one level in its own lane of
// the word: two 4-digit lanes, four 2-digit lanes, eight digits. Each
// split divides all lanes at once by a multiply and a shift whose
// rounding is exact over the lane's range (x·10486>>20 = x/100 for
// x < 10^4, y·103>>10 = y/10 for y < 100).
func digits8(u uint32) uint64 {
	hi := u / 1e4
	x := uint64(hi) | uint64(u-hi*1e4)<<32
	q := x * 10486 >> 20 & 0x0000007f0000007f
	y := q | (x-q*100)<<16
	t := y * 103 >> 10 & 0x000f000f000f000f
	return t | (y-t*10)<<8
}

// leading returns the number of leading zeros among the eight digits
// z, at most seven: zero keeps one digit.
func leading(z uint64) int { return bits.TrailingZeros64(z|1<<56) >> 3 }

// appendInt64s renders a JSON array of integers, byte for byte what
// strconv.AppendInt and a comma per value would. It reserves the worst
// case (maxToken bytes a value) once and writes in place, with no
// per-value append and no scratch: digits are made eight at a time in
// a register (digits8), their leading zeros counted and shifted out,
// and stored as whole words — the next token overwrites what a word
// carries past its own.
//
// A value v in [100, runBelow) starts a run: the values that follow
// and differ from it only in the last two digits (v' - base < 100,
// base being v with that pair zeroed) — an equal run, consecutive row
// numbers, a narrow walk — store v's words again and rewrite the pair
// from a table, instead of dividing. The words stay in registers; a
// run never reads back what it wrote.
func appendInt64s(buf []byte, vs []int64) []byte {
	w := len(buf)
	need := 2 + maxToken*len(vs) + overshoot
	buf = slices.Grow(buf, need)
	b := buf[:w+need]
	b[w] = '['
	w++
	for i := 0; i < len(vs); {
		v := vs[i]
		i++
		u := uint64(v)
		if v < 0 {
			b[w] = '-'
			w++
			u = -u
		}
		var (
			n      int    // the digit count
			h0, h1 uint64 // the first eight characters and, if n > 8, the last eight
			z      uint64 // the last eight digits
		)
		switch {
		case u < 1e8:
			z = digits8(uint32(u))
			lead := leading(z)
			n, h0 = 8-lead, (z|ascii)>>(8*uint(lead))
			binary.LittleEndian.PutUint64(b[w:], h0)
		case u < 1e16:
			top := u / 1e8
			zt := digits8(uint32(top))
			lead := leading(zt)
			z = digits8(uint32(u - top*1e8))
			n, h0, h1 = 16-lead, (zt|ascii)>>(8*uint(lead)), z|ascii
			binary.LittleEndian.PutUint64(b[w:], h0)
			binary.LittleEndian.PutUint64(b[w+n-8:], h1)
		default:
			top := u / 1e16
			low := u - top*1e16
			mid := low / 1e8
			zt := digits8(uint32(top))
			lead := leading(zt)
			n = 24 - lead
			binary.LittleEndian.PutUint64(b[w:], (zt|ascii)>>(8*uint(lead)))
			binary.LittleEndian.PutUint64(b[w+n-16:], digits8(uint32(mid))|ascii)
			binary.LittleEndian.PutUint64(b[w+n-8:], digits8(uint32(low-mid*1e8))|ascii)
		}
		b[w+n] = ','
		w += n + 1
		if v < 100 || v >= runBelow {
			continue
		}
		base := v - int64(z>>48&0xff*10+z>>56)
		for ; i < len(vs); i++ {
			d := uint64(vs[i] - base)
			if d >= 100 {
				break
			}
			t := b[w:]
			binary.LittleEndian.PutUint64(t, h0)
			if n > 8 {
				binary.LittleEndian.PutUint64(t[n-8:], h1)
			}
			binary.LittleEndian.PutUint16(t[n-2:], digitPairs[d])
			t[n] = ','
			w += n + 1
		}
	}
	if len(vs) > 0 {
		w-- // the last comma becomes the bracket
	}
	b[w] = ']'
	return buf[:w+1]
}
