package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/blocked"
)

// Container format v2 ("LWC2") carries blocked columns: alongside
// each column's forms it stores the block index — block size, and
// per block the element count, the [min, max] stats and the encoded
// form. v1 ("LWC1") containers carry exactly one form per column and
// remain readable; ReadAnyContainer dispatches on the magic.
//
// v2 layout (all little-endian, varints LEB128, signed zigzagged):
//
//	magic "LWC2"
//	version u16 (= 2)
//	ncols   varint
//	per column:
//	  name       u8-len + bytes
//	  blockSize  varint (0 = single unpartitioned block)
//	  n          varint (total rows)
//	  nblocks    varint
//	  per block:
//	    count    varint
//	    hasStats u8 (0|1)
//	    min,max  zigzag varints (present only when hasStats = 1)
//	    formLen  varint
//	    form     bytes (EncodeForm)
//	crc32c of everything after the magic

// MagicV2 identifies v2 (blocked) container files.
var MagicV2 = [4]byte{'L', 'W', 'C', '2'}

// VersionV2 is the blocked container format version.
const VersionV2 uint16 = 2

// BlockedColumn pairs a name with a blocked column inside a v2
// container.
type BlockedColumn struct {
	Name string
	Col  *blocked.Column
}

// WriteContainerV2 writes named blocked columns as one v2 container.
func WriteContainerV2(w io.Writer, cols []BlockedColumn) error {
	var body []byte
	body = binary.LittleEndian.AppendUint16(body, VersionV2)
	body = binary.AppendUvarint(body, uint64(len(cols)))
	for _, c := range cols {
		if len(c.Name) == 0 || len(c.Name) > maxNameLen {
			return fmt.Errorf("%w: column name %q", ErrCorrupt, c.Name)
		}
		if c.Col == nil {
			return fmt.Errorf("%w: column %q has no data", ErrCorrupt, c.Name)
		}
		if err := c.Col.Validate(); err != nil {
			return err
		}
		body = append(body, byte(len(c.Name)))
		body = append(body, c.Name...)
		body = binary.AppendUvarint(body, uint64(c.Col.BlockSize))
		body = binary.AppendUvarint(body, uint64(c.Col.N))
		body = binary.AppendUvarint(body, uint64(len(c.Col.Blocks)))
		for i := range c.Col.Blocks {
			b := &c.Col.Blocks[i]
			body = binary.AppendUvarint(body, uint64(b.Count))
			if b.HasStats {
				body = append(body, 1)
				body = binary.AppendUvarint(body, bitpack.Zigzag(b.Min))
				body = binary.AppendUvarint(body, bitpack.Zigzag(b.Max))
			} else {
				body = append(body, 0)
			}
			enc, err := EncodeForm(b.Form)
			if err != nil {
				return err
			}
			body = binary.AppendUvarint(body, uint64(len(enc)))
			body = append(body, enc...)
		}
	}
	if _, err := w.Write(MagicV2[:]); err != nil {
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

// ReadContainerV2 reads a v2 container written by WriteContainerV2.
func ReadContainerV2(r io.Reader) ([]BlockedColumn, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeContainerV2(data)
}

func decodeContainerV2(data []byte) ([]BlockedColumn, error) {
	if len(data) < len(MagicV2)+2+4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	for i := range MagicV2 {
		if data[i] != MagicV2[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	body := data[len(MagicV2) : len(data)-4]
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
	if v := uint16(verLo) | uint16(verHi)<<8; v != VersionV2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	ncols, err := d.count(2)
	if err != nil {
		return nil, err
	}
	cols := make([]BlockedColumn, 0, ncols)
	for ci := 0; ci < ncols; ci++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		blockSize, err := d.count(0)
		if err != nil {
			return nil, err
		}
		n, err := d.count(0)
		if err != nil {
			return nil, err
		}
		nblocks, err := d.count(2)
		if err != nil {
			return nil, err
		}
		col := &blocked.Column{N: n, BlockSize: blockSize, Blocks: make([]blocked.Block, 0, nblocks)}
		var start int64
		for bi := 0; bi < nblocks; bi++ {
			count, err := d.count(0)
			if err != nil {
				return nil, err
			}
			hasStats, err := d.u8()
			if err != nil {
				return nil, err
			}
			if hasStats > 1 {
				return nil, fmt.Errorf("%w: bad stats flag %d", ErrCorrupt, hasStats)
			}
			blk := blocked.Block{Start: start, Count: count, HasStats: hasStats == 1}
			if blk.HasStats {
				zzMin, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				zzMax, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				blk.Min = bitpack.Unzigzag(zzMin)
				blk.Max = bitpack.Unzigzag(zzMax)
				if blk.Min > blk.Max {
					return nil, fmt.Errorf("%w: block stats min %d > max %d", ErrCorrupt, blk.Min, blk.Max)
				}
			}
			formLen, err := d.count(1)
			if err != nil {
				return nil, err
			}
			if d.pos+formLen > len(body) {
				return nil, fmt.Errorf("%w: truncated block form in column %q", ErrCorrupt, name)
			}
			f, err := DecodeBlockPayload(body[d.pos:d.pos+formLen], count)
			if err != nil {
				return nil, fmt.Errorf("column %q block %d: %w", name, bi, err)
			}
			d.pos += formLen
			blk.Form = f
			col.Blocks = append(col.Blocks, blk)
			start += int64(count)
		}
		if start != int64(n) {
			return nil, fmt.Errorf("%w: column %q blocks cover %d rows, header says %d",
				ErrCorrupt, name, start, n)
		}
		cols = append(cols, BlockedColumn{Name: name, Col: col})
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in container", ErrCorrupt, len(body)-d.pos)
	}
	return cols, nil
}

// ReadAnyContainer reads any container generation eagerly: v3 and v2
// natively, v1 by adopting each single form as an unpartitioned
// blocked column (no stats, so queries delegate rather than skip).
// Use OpenContainer / OpenContainerFile to open a v3 container
// without reading its payloads.
func ReadAnyContainer(r io.Reader) ([]BlockedColumn, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == string(MagicV3[:]) {
		return decodeContainerV3(data)
	}
	if len(data) >= 4 && string(data[:4]) == string(MagicV2[:]) {
		return decodeContainerV2(data)
	}
	cols, err := readContainerBytes(data)
	if err != nil {
		return nil, err
	}
	out := make([]BlockedColumn, 0, len(cols))
	for _, c := range cols {
		bc, err := blocked.FromForm(c.Form, false)
		if err != nil {
			return nil, err
		}
		out = append(out, BlockedColumn{Name: c.Name, Col: bc})
	}
	return out, nil
}
