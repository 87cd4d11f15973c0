package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
)

// Magic identifies lwcomp container files.
var Magic = [4]byte{'L', 'W', 'C', '1'}

// Version is the current container format version.
const Version uint16 = 1

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

// EncodeForm serializes a form tree.
func EncodeForm(f *core.Form) ([]byte, error) {
	var buf []byte
	return appendForm(buf, f)
}

func appendForm(buf []byte, f *core.Form) ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil form", ErrCorrupt)
	}
	if len(f.Scheme) == 0 || len(f.Scheme) > maxNameLen {
		return nil, fmt.Errorf("%w: scheme name length %d", ErrCorrupt, len(f.Scheme))
	}
	buf = append(buf, byte(len(f.Scheme)))
	buf = append(buf, f.Scheme...)
	if f.N < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrCorrupt, f.N)
	}
	buf = binary.AppendUvarint(buf, uint64(f.N))

	// Parameters, sorted for deterministic bytes.
	keys := f.Params.Keys()
	if len(keys) > 255 {
		return nil, fmt.Errorf("%w: %d parameters", ErrCorrupt, len(keys))
	}
	buf = append(buf, byte(len(keys)))
	for _, k := range keys {
		if len(k) == 0 || len(k) > maxNameLen {
			return nil, fmt.Errorf("%w: parameter name %q", ErrCorrupt, k)
		}
		buf = append(buf, byte(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, bitpack.Zigzag(f.Params[k]))
	}

	// Children, sorted by name.
	names := f.ChildNames()
	if len(names) > 255 {
		return nil, fmt.Errorf("%w: %d children", ErrCorrupt, len(names))
	}
	buf = append(buf, byte(len(names)))
	for _, name := range names {
		if len(name) == 0 || len(name) > maxNameLen {
			return nil, fmt.Errorf("%w: child name %q", ErrCorrupt, name)
		}
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		var err error
		buf, err = appendForm(buf, f.Children[name])
		if err != nil {
			return nil, err
		}
	}

	// Payload.
	arms := 0
	if f.Leaf != nil {
		arms++
	}
	if f.Packed != nil {
		arms++
	}
	if f.Bytes != nil {
		arms++
	}
	if arms > 1 {
		return nil, fmt.Errorf("%w: form %q mixes payload arms", ErrCorrupt, f.Scheme)
	}
	switch {
	case f.Leaf != nil:
		buf = append(buf, payloadLeaf)
		buf = binary.AppendUvarint(buf, uint64(len(f.Leaf)))
		for _, v := range f.Leaf {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case f.Packed != nil:
		buf = append(buf, payloadPacked)
		buf = binary.AppendUvarint(buf, uint64(len(f.Packed)))
		for _, v := range f.Packed {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	case f.Bytes != nil:
		buf = append(buf, payloadBytes)
		buf = binary.AppendUvarint(buf, uint64(len(f.Bytes)))
		buf = append(buf, f.Bytes...)
	default:
		buf = append(buf, payloadNone)
	}
	return buf, nil
}

// DecodeForm deserializes a form tree, returning the form and the
// number of bytes consumed.
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
}

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
var (
	internMu sync.RWMutex
	interned = make(map[string]string)
)

const maxInternedNames = 1024

func internName(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) < maxInternedNames {
		interned[s] = s
	}
	internMu.Unlock()
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
		src, err := d.words("leaf")
		if err != nil {
			return nil, err
		}
		f.Leaf = make([]int64, len(src)/8)
		for i := range f.Leaf {
			f.Leaf[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case payloadPacked:
		src, err := d.words("packed")
		if err != nil {
			return nil, err
		}
		f.Packed = make([]uint64, len(src)/8)
		for i := range f.Packed {
			f.Packed[i] = binary.LittleEndian.Uint64(src[8*i:])
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

// Column pairs a name with its compressed form inside a container.
type Column struct {
	Name string
	Form *core.Form
}

// WriteContainer writes named compressed columns as one container:
// magic, version, column count, per-column name + encoded form, and a
// CRC-32C of everything after the magic.
func WriteContainer(w io.Writer, cols []Column) error {
	var body []byte
	body = binary.LittleEndian.AppendUint16(body, Version)
	body = binary.AppendUvarint(body, uint64(len(cols)))
	for _, c := range cols {
		if len(c.Name) == 0 || len(c.Name) > maxNameLen {
			return fmt.Errorf("%w: column name %q", ErrCorrupt, c.Name)
		}
		body = append(body, byte(len(c.Name)))
		body = append(body, c.Name...)
		enc, err := EncodeForm(c.Form)
		if err != nil {
			return err
		}
		body = binary.AppendUvarint(body, uint64(len(enc)))
		body = append(body, enc...)
	}
	if _, err := w.Write(Magic[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body, castagnoli))
	_, err := w.Write(crc[:])
	return err
}

// ReadContainer reads a container written by WriteContainer. Columns
// come back in file order.
func ReadContainer(r io.Reader) ([]Column, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return readContainerBytes(data)
}

// readContainerBytes decodes a v1 container from memory (shared by
// ReadContainer and the v2 reader's fallback path).
func readContainerBytes(data []byte) ([]Column, error) {
	if len(data) < len(Magic)+2+4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	for i := range Magic {
		if data[i] != Magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	body := data[len(Magic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, ErrChecksum
	}
	d := &decoder{data: body}
	verLo, err := d.u8()
	if err != nil {
		return nil, err
	}
	verHi, err := d.u8()
	if err != nil {
		return nil, err
	}
	if v := uint16(verLo) | uint16(verHi)<<8; v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	ncols, err := d.count(2)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, 0, ncols)
	for i := 0; i < ncols; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		formLen, err := d.count(1)
		if err != nil {
			return nil, err
		}
		if d.pos+formLen > len(body) {
			return nil, fmt.Errorf("%w: truncated column %q", ErrCorrupt, name)
		}
		f, consumed, err := DecodeForm(body[d.pos : d.pos+formLen])
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", name, err)
		}
		if consumed != formLen {
			return nil, fmt.Errorf("%w: column %q has %d trailing bytes", ErrCorrupt, name, formLen-consumed)
		}
		d.pos += formLen
		cols = append(cols, Column{Name: name, Form: f})
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in container", ErrCorrupt, len(body)-d.pos)
	}
	return cols, nil
}

// EncodedSize returns the exact serialized size in bytes of a form —
// the honest number the experiments report alongside the analytic
// PayloadBits estimate.
func EncodedSize(f *core.Form) (int, error) {
	enc, err := EncodeForm(f)
	if err != nil {
		return 0, err
	}
	return len(enc), nil
}

// SortColumns orders columns by name (for deterministic containers
// built from maps).
func SortColumns(cols []Column) {
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
}
