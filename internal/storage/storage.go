package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// Payload kind tags.
const (
	payloadNone   = 0
	payloadLeaf   = 1
	payloadPacked = 2
	payloadBytes  = 3
)

// ErrCorrupt is returned for any structurally invalid encoding. It is
// a permanent error: retrying the read cannot fix it (see
// blocked.IsPermanent).
var ErrCorrupt error = &permanentSentinel{msg: "storage: corrupt encoding"}

// ErrChecksum is returned when a container's CRC does not match. Like
// ErrCorrupt it is permanent and never retried.
var ErrChecksum error = &permanentSentinel{msg: "storage: checksum mismatch"}

// permanentSentinel is an error value carrying the permanent-failure
// marker the blocked layer classifies with (via errors.As), so the
// retry loop never re-reads bytes whose content — not transport — is
// the problem. Identity-based errors.Is comparisons against the
// sentinels above keep working: each sentinel is a unique pointer.
type permanentSentinel struct{ msg string }

func (e *permanentSentinel) Error() string { return e.msg }

// PermanentStorageError marks the sentinel permanent for
// blocked.IsPermanent.
func (e *permanentSentinel) PermanentStorageError() bool { return true }

// ensure the marker stays in sync with the blocked layer's detection.
var _ interface{ PermanentStorageError() bool } = (*permanentSentinel)(nil)

// maxNameLen bounds scheme/child/param name lengths.
const maxNameLen = 255

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeForm serializes a form tree into one buffer of its exact
// encoded size.
func EncodeForm(f *core.Form) ([]byte, error) {
	n, err := formSize(f)
	if err != nil {
		return nil, err
	}
	return appendForm(make([]byte, 0, n), f), nil
}

// formSize returns the exact number of bytes appendForm adds for f,
// rejecting every form it cannot serialize: a nil form, a name outside
// [1, 255] bytes, a negative length, more than 255 parameters or
// children, or payload arms mixed in one node.
func formSize(f *core.Form) (int, error) {
	if f == nil {
		return 0, fmt.Errorf("%w: nil form", ErrCorrupt)
	}
	if len(f.Scheme) == 0 || len(f.Scheme) > maxNameLen {
		return 0, fmt.Errorf("%w: scheme name length %d", ErrCorrupt, len(f.Scheme))
	}
	if f.N < 0 {
		return 0, fmt.Errorf("%w: negative length %d", ErrCorrupt, f.N)
	}
	if len(f.Params) > 255 {
		return 0, fmt.Errorf("%w: %d parameters", ErrCorrupt, len(f.Params))
	}
	if len(f.Children) > 255 {
		return 0, fmt.Errorf("%w: %d children", ErrCorrupt, len(f.Children))
	}
	n := 1 + len(f.Scheme) + uvarintLen(uint64(f.N)) + 1 + 1
	for k, v := range f.Params {
		if len(k) == 0 || len(k) > maxNameLen {
			return 0, fmt.Errorf("%w: parameter name %q", ErrCorrupt, k)
		}
		n += 1 + len(k) + uvarintLen(bitpack.Zigzag(v))
	}
	for name, c := range f.Children {
		if len(name) == 0 || len(name) > maxNameLen {
			return 0, fmt.Errorf("%w: child name %q", ErrCorrupt, name)
		}
		cn, err := formSize(c)
		if err != nil {
			return 0, err
		}
		n += 1 + len(name) + cn
	}
	arms := 0
	for _, has := range [...]bool{f.Leaf != nil, f.Packed != nil, f.Bytes != nil} {
		if has {
			arms++
		}
	}
	if arms > 1 {
		return 0, fmt.Errorf("%w: form %q mixes payload arms", ErrCorrupt, f.Scheme)
	}
	n++ // the payload kind
	switch {
	case f.Leaf != nil:
		n += uvarintLen(uint64(len(f.Leaf))) + 8*len(f.Leaf)
	case f.Packed != nil:
		n += uvarintLen(uint64(len(f.Packed))) + 8*len(f.Packed)
	case f.Bytes != nil:
		n += uvarintLen(uint64(len(f.Bytes))) + len(f.Bytes)
	}
	return n, nil
}

// uvarintLen returns the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendForm appends the serialization of f, which formSize has
// accepted, to buf. Parameters and children go in name order, so the
// bytes are deterministic.
func appendForm(buf []byte, f *core.Form) []byte {
	buf = append(buf, byte(len(f.Scheme)))
	buf = append(buf, f.Scheme...)
	buf = binary.AppendUvarint(buf, uint64(f.N))

	var names [8]string
	keys := names[:0]
	for k := range f.Params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = append(buf, byte(len(keys)))
	for _, k := range keys {
		buf = append(buf, byte(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, bitpack.Zigzag(f.Params[k]))
	}

	keys = names[:0]
	for name := range f.Children {
		keys = append(keys, name)
	}
	slices.Sort(keys)
	buf = append(buf, byte(len(keys)))
	for _, name := range keys {
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = appendForm(buf, f.Children[name])
	}

	switch {
	case f.Leaf != nil:
		buf = append(buf, payloadLeaf)
		buf = binary.AppendUvarint(buf, uint64(len(f.Leaf)))
		buf = appendWords(buf, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f.Leaf))), len(f.Leaf)))
	case f.Packed != nil:
		buf = append(buf, payloadPacked)
		buf = binary.AppendUvarint(buf, uint64(len(f.Packed)))
		buf = appendWords(buf, f.Packed)
	case f.Bytes != nil:
		buf = append(buf, payloadBytes)
		buf = binary.AppendUvarint(buf, uint64(len(f.Bytes)))
		buf = append(buf, f.Bytes...)
	default:
		buf = append(buf, payloadNone)
	}
	return buf
}

// appendWords appends the little-endian bytes of words to buf: on a
// little-endian host one copy from a byte view of words, which is a
// []uint64 and so word-aligned; elsewhere a word at a time.
func appendWords(buf []byte, words []uint64) []byte {
	if !littleEndian {
		for _, v := range words {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return buf
	}
	if len(words) == 0 {
		return buf
	}
	return append(buf, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))...)
}

// DecodeForm deserializes a form tree, returning the form and the
// number of bytes consumed. Every word payload of the tree — Packed
// and Leaf alike — is carved from one []uint64 slab, no larger than
// len(data) bytes, each arm with cap == len so that an append by a
// consumer reallocates instead of overwriting its sibling. The form
// never aliases data.
func DecodeForm(data []byte) (*core.Form, int, error) {
	d := &decoder{data: data}
	f, err := d.form(0)
	if err != nil {
		return nil, 0, err
	}
	return f, d.pos, nil
}

// maxFormDepth bounds recursion when decoding untrusted data.
const maxFormDepth = 64

type decoder struct {
	data []byte
	pos  int
	// slab holds the words not yet handed to a payload arm. It is
	// allocated at the first word payload, sized from the bytes that
	// remain: every word still to come takes 8 of them.
	slab []uint64
	// pooled makes that allocation a getSlab: sl is then the slab the
	// arms are carved from, and reused reports that it came off the
	// free list.
	pooled bool
	sl     *slab
	reused bool
}

// littleEndian reports whether the host stores words little-endian,
// as the encoding does: then a payload's bytes are its words' memory
// image and one copy moves them.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCorrupt, d.pos)
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// u32 reads a little-endian uint32.
func (d *decoder) u32() (uint32, error) {
	if len(d.data)-d.pos < 4 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCorrupt, d.pos)
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) name() (string, error) {
	n, err := d.u8()
	if err != nil {
		return "", err
	}
	if int(n) == 0 {
		return "", fmt.Errorf("%w: empty name at byte %d", ErrCorrupt, d.pos)
	}
	if d.pos+int(n) > len(d.data) {
		return "", fmt.Errorf("%w: truncated name at byte %d", ErrCorrupt, d.pos)
	}
	s := internName(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// internName returns the canonical copy of a scheme name, parameter
// key or constituent name. Forms are built from a small vocabulary
// repeated in every node of every block, and a decoded form can sit in
// the block cache for a long time, where each string of its own is one
// more object for the garbage collector to mark every cycle — with a
// copy per node, about half of a cached block's objects. The table is
// capped so that files inventing names cannot grow it without bound;
// past the cap a new name is simply not shared.
//
// Every name of every decoded node is looked up here, from every
// decoding goroutine, so a lookup takes no lock: the table is an
// immutable map read through an atomic pointer. The rare insert copies
// it under internMu and publishes the copy.
var (
	internMu sync.Mutex
	interned atomic.Pointer[map[string]string]
)

const maxInternedNames = 1024

func init() { interned.Store(&map[string]string{}) }

func internName(b []byte) string {
	if s, ok := (*interned.Load())[string(b)]; ok {
		return s
	}
	s := string(b)
	internMu.Lock()
	defer internMu.Unlock()
	old := *interned.Load()
	if t, ok := old[s]; ok {
		return t // interned while this call waited
	}
	if len(old) >= maxInternedNames {
		return s
	}
	next := maps.Clone(old)
	next[s] = s
	interned.Store(&next)
	return s
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrCorrupt, d.pos)
	}
	d.pos += n
	return v, nil
}

// count reads a varint length and sanity-checks it against the
// remaining input so corrupt lengths cannot trigger huge allocations.
func (d *decoder) count(perItemBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(math.MaxInt32) {
		return 0, fmt.Errorf("%w: count %d too large", ErrCorrupt, v)
	}
	remaining := len(d.data) - d.pos
	if perItemBytes > 0 && v > uint64(remaining/perItemBytes)+1 {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCorrupt, v, remaining)
	}
	return int(v), nil
}

// words reads a word count and returns the bytes of that many 64-bit
// words, advancing past them once; what names the payload in errors.
func (d *decoder) words(what string) ([]byte, error) {
	cnt, err := d.count(8)
	if err != nil {
		return nil, err
	}
	if cnt > (len(d.data)-d.pos)/8 {
		return nil, fmt.Errorf("%w: truncated %s payload", ErrCorrupt, what)
	}
	src := d.data[d.pos : d.pos+cnt*8]
	d.pos += len(src)
	return src, nil
}

// wordArm reads a word payload into the slab's next words and returns
// them with cap == len; what names the payload in errors.
func (d *decoder) wordArm(what string) ([]uint64, error) {
	src, err := d.words(what)
	if err != nil {
		return nil, err
	}
	if d.slab == nil {
		n := (len(d.data) - d.pos + len(src)) / 8
		if d.pooled {
			d.sl, d.reused = getSlab(n)
			d.slab = d.sl.words
		} else {
			d.slab = make([]uint64, n)
		}
	}
	n := len(src) / 8
	dst := d.slab[:n:n]
	d.slab = d.slab[n:]
	copyWords(dst, src)
	return dst, nil
}

// copyWords fills dst with the little-endian words of src, which holds
// exactly 8*len(dst) bytes.
func copyWords(dst []uint64, src []byte) {
	if littleEndian {
		copyWordsLE(dst, src)
	} else {
		copyWordsLoop(dst, src)
	}
}

// copyWordsLE is copyWords on a little-endian host: one copy into a
// byte view of dst. Only the destination is viewed — it is a []uint64,
// so word-aligned — never the read buffer, which need not be.
func copyWordsLE(dst []uint64, src []byte) {
	if len(dst) == 0 {
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src)
}

// copyWordsLoop is copyWords on any host, a word at a time — the path
// a big-endian host takes.
func copyWordsLoop(dst []uint64, src []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}

func (d *decoder) form(depth int) (*core.Form, error) {
	if depth > maxFormDepth {
		return nil, fmt.Errorf("%w: form nesting deeper than %d", ErrCorrupt, maxFormDepth)
	}
	schemeName, err := d.name()
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: form length %d too large", ErrCorrupt, n)
	}
	f := &core.Form{Scheme: schemeName, N: int(n)}

	nparams, err := d.u8()
	if err != nil {
		return nil, err
	}
	if nparams > 0 {
		f.Params = make(core.Params, nparams)
		for i := 0; i < int(nparams); i++ {
			k, err := d.name()
			if err != nil {
				return nil, err
			}
			zz, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if _, dup := f.Params[k]; dup {
				return nil, fmt.Errorf("%w: duplicate parameter %q", ErrCorrupt, k)
			}
			f.Params[k] = bitpack.Unzigzag(zz)
		}
	}

	nchildren, err := d.u8()
	if err != nil {
		return nil, err
	}
	if nchildren > 0 {
		f.Children = make(map[string]*core.Form, nchildren)
		prev := ""
		for i := 0; i < int(nchildren); i++ {
			k, err := d.name()
			if err != nil {
				return nil, err
			}
			if k <= prev && i > 0 {
				return nil, fmt.Errorf("%w: child names out of order (%q after %q)", ErrCorrupt, k, prev)
			}
			prev = k
			child, err := d.form(depth + 1)
			if err != nil {
				return nil, err
			}
			f.Children[k] = child
		}
	}

	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case payloadNone:
	case payloadLeaf:
		w, err := d.wordArm("leaf")
		if err != nil {
			return nil, err
		}
		// The same words, read as int64s.
		f.Leaf = []int64{}
		if len(w) > 0 {
			f.Leaf = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
		}
	case payloadPacked:
		if f.Packed, err = d.wordArm("packed"); err != nil {
			return nil, err
		}
	case payloadBytes:
		cnt, err := d.count(1)
		if err != nil {
			return nil, err
		}
		if d.pos+cnt > len(d.data) {
			return nil, fmt.Errorf("%w: truncated byte payload", ErrCorrupt)
		}
		f.Bytes = append([]byte{}, d.data[d.pos:d.pos+cnt]...)
		d.pos += cnt
	default:
		return nil, fmt.Errorf("%w: unknown payload kind %d", ErrCorrupt, kind)
	}
	return f, nil
}

// EncodedSize returns the exact serialized size in bytes of a form —
// the honest number the experiments report alongside the analytic
// PayloadBits estimate.
func EncodedSize(f *core.Form) (int, error) { return formSize(f) }
