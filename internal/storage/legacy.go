package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/blocked"
)

// This file holds the decoders of the two container generations before
// v3. No open path reads them: OpenContainer rejects both after their
// 4-byte magic with an error naming `lwc upgrade`, and ReadLegacy —
// whose only caller is that command — decodes them so the command can
// write the columns back out as v3. Both generations keep one CRC-32C
// over the whole body, so reading anything means reading everything.
//
// v1 ("LWC1") holds one form per column:
//
//	magic "LWC1"
//	version u16 (= 1)
//	ncols   varint
//	per column:
//	  name    u8-len + bytes
//	  formLen varint
//	  form    bytes (EncodeForm)
//	crc32c of everything after the magic
//
// v2 ("LWC2") holds blocked columns, interleaving the block index with
// the block forms:
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

const (
	magicV1 = "LWC1"
	magicV2 = "LWC2"
)

// legacyError is the permanent error an open path reports for a
// container whose 4-byte magic is v1's or v2's, or nil for any other
// magic.
func legacyError(magic []byte) error {
	switch string(magic) {
	case magicV1, magicV2:
		return fmt.Errorf("%w: a format v%c container is not read any more; convert it with `lwc upgrade -i <old> -o <new>`",
			ErrCorrupt, magic[3])
	}
	return nil
}

// ReadLegacy decodes a whole v1 or v2 container held in data. A v1
// column comes back as one unpartitioned block with its [min, max]
// stats computed from the values, as blocked.FromForm(f, true) adopts
// a form; v2 columns come back with their blocks, forms and stats as
// stored. Integrity failures are ErrCorrupt or ErrChecksum.
func ReadLegacy(data []byte) ([]BlockedColumn, error) {
	if len(data) >= 4 {
		switch string(data[:4]) {
		case magicV1:
			return decodeContainerV1(data)
		case magicV2:
			return decodeContainerV2(data)
		}
	}
	return nil, fmt.Errorf("%w: not a v1 or v2 container", ErrCorrupt)
}

// legacyBody checks a legacy container's length, magic, whole-body
// CRC and version, and returns a decoder positioned after the version.
func legacyBody(data []byte, magic string, version uint16) (*decoder, error) {
	if len(data) < len(magic)+2+4 {
		return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := data[len(magic) : len(data)-4]
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
	if v := uint16(verLo) | uint16(verHi)<<8; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	return d, nil
}

func decodeContainerV1(data []byte) ([]BlockedColumn, error) {
	d, err := legacyBody(data, magicV1, 1)
	if err != nil {
		return nil, err
	}
	body := d.data
	ncols, err := d.count(2)
	if err != nil {
		return nil, err
	}
	cols := make([]BlockedColumn, 0, ncols)
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
		col, err := blocked.FromForm(f, true)
		if err != nil {
			return nil, fmt.Errorf("%w: column %q: %w", ErrCorrupt, name, err)
		}
		cols = append(cols, BlockedColumn{Name: name, Col: col})
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in container", ErrCorrupt, len(body)-d.pos)
	}
	return cols, nil
}

func decodeContainerV2(data []byte) ([]BlockedColumn, error) {
	d, err := legacyBody(data, magicV2, 2)
	if err != nil {
		return nil, err
	}
	body := d.data
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
