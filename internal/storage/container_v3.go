package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/blocked"
	"lwcomp/internal/core"
)

// Container format v3 ("LWC3") is the lazily openable generation: the
// block index is self-contained at the front of the file and every
// block payload carries its own CRC-32C, so a reader can open a
// container by reading only the fixed prefix and the index, then
// fetch and verify individual block payloads on demand. It is the one
// generation any open path reads; v1 and v2 files (legacy.go) are
// rejected at their magic, and `lwc upgrade` rewrites them as v3.
//
// v3 layout (all little-endian, varints LEB128, signed zigzagged):
//
//	magic    "LWC3"
//	version  u16 (= 3)
//	indexLen u64 (bytes of the index section, including its CRC)
//	index section:
//	  ncols varint
//	  per column:
//	    name      u8-len + bytes
//	    blockSize varint (0 = single unpartitioned block)
//	    n         varint (total rows)
//	    nblocks   varint
//	    per block:
//	      count      varint
//	      flag       u8 (0 = no stats, 1 = stats, 2 = tombstone,
//	                     3 = stats + certificate)
//	      min,max    zigzag varints (present only when flag = 1 or 3)
//	      cert       u32 search fingerprint (present only when flag = 3)
//	      reason     u8-len + bytes (present only when flag = 2)
//	      payloadOff varint (relative to the payload region start)
//	      payloadLen varint (0 when flag = 2)
//	      payloadCRC u32 (CRC-32C of the block's encoded form)
//	  crc32c u32 of the index bytes above
//	payload region: concatenated EncodeForm bytes
//
// Flag 2 is the tombstone written by salvage repair for a block whose
// payload was lost for good: the index still declares the block's row
// range (so the column tiles [0, N) exactly), but there is no payload
// behind it. A reader materializes the tombstone as a quarantined
// block — fetches fail fast with blocked.ErrTombstone, degraded scans
// skip exactly the declared range. Readers from before flag 2 reject
// such containers at open ("bad stats flag"), never misread them.
//
// Flag 3 is flag 1 plus the block's certificate
// (blocked.Block.Certificate): the fingerprint of the search that
// chose the payload over the whole block, which lets the compactor
// skip the container from its index alone. A block with a
// certificate but no stats is written as flag 0, losing the
// certificate. Readers from before flag 3 reject such containers at
// open ("bad stats flag"), as with flag 2.
//
// Invariants a reader enforces: payload extents lie inside the
// payload region, and the largest extent end equals the region size
// exactly (so a truncated or padded file fails at open, not at first
// touch). Block payload corruption, by contrast, is detected lazily:
// the per-block CRC is checked when the block is first fetched.

// MagicV3 identifies v3 (lazily openable) container files.
var MagicV3 = [4]byte{'L', 'W', 'C', '3'}

// VersionV3 is the lazily openable container format version.
const VersionV3 uint16 = 3

// v3PrefixLen is the fixed byte length of magic + version + indexLen.
const v3PrefixLen = 4 + 2 + 8

// BlockedColumn pairs a name with a blocked column inside a container.
type BlockedColumn struct {
	Name string
	Col  *blocked.Column
}

// blockLoc is one block's payload extent inside the payload region.
type blockLoc struct {
	off, length int64
	crc         uint32
}

// WriteContainerV3 writes named blocked columns as one v3 container.
// Columns may be lazily opened handles: their block payloads are
// fetched through the source, and every fetched form stays leased
// until the container is written. Tombstoned blocks are written as
// index tombstones with no payload. The writer assembles the whole
// container in one buffer of its exact size — every form serialized
// straight into place — before one write (offsets must be known up
// front), so writing costs O(container) memory; a spooling writer is
// future work if containers outgrow RAM.
func WriteContainerV3(w io.Writer, cols []BlockedColumn) error {
	raw := make([]RawColumn, 0, len(cols))
	defer func() {
		for _, rc := range raw {
			for i := range rc.Blocks {
				rc.Blocks[i].lease.Release()
			}
		}
	}()
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
		rc := RawColumn{Name: c.Name, BlockSize: c.Col.BlockSize, Blocks: make([]RawBlock, len(c.Col.Blocks))}
		raw = append(raw, rc)
		for i := range c.Col.Blocks {
			b := &c.Col.Blocks[i]
			rb := &rc.Blocks[i]
			*rb = RawBlock{
				Count: b.Count, HasStats: b.HasStats, Min: b.Min, Max: b.Max,
				Certificate: b.Certificate,
				Tombstone:   b.Tombstone, TombstoneReason: b.TombstoneReason,
			}
			if !b.Tombstone {
				f, l, err := c.Col.LeasedForm(i)
				if err != nil {
					return err
				}
				rb.form, rb.lease = f, l
			}
		}
	}
	return WriteContainerV3Raw(w, raw)
}

// RawBlock is one block of a raw-assembled v3 container: the index
// facts plus the already-encoded payload bytes, written verbatim.
// Salvage repair uses the raw writer to preserve good blocks
// byte-for-byte without a decode/re-encode round trip.
type RawBlock struct {
	// Count is the block's element count.
	Count int
	// HasStats reports whether Min/Max are valid; ignored (written as
	// absent) for tombstones.
	HasStats bool
	// Min and Max are the block's raw-value extremes.
	Min, Max int64
	// Certificate is the block's search certificate
	// (blocked.Block.Certificate), written only beside stats; 0 means
	// none. It vouches for Payload, so a caller that cannot vouch for
	// the bytes being the encoder's must leave it 0.
	Certificate uint32
	// Tombstone marks a block whose payload is lost; Payload must be
	// nil.
	Tombstone bool
	// TombstoneReason is persisted with a tombstone (truncated to 255
	// bytes); ignored otherwise.
	TombstoneReason string
	// Payload is the block's encoded form bytes, written verbatim.
	Payload []byte

	// form, when set (by WriteContainerV3), is serialized into place
	// as the payload instead of Payload; lease holds it until then.
	form  *core.Form
	lease blocked.Lease
}

// RawColumn is one column of a raw-assembled v3 container. The row
// count is the sum of its blocks' counts.
type RawColumn struct {
	// Name is the column name recorded in the index.
	Name string
	// BlockSize is the encode-time partition size (0 = one
	// unpartitioned block).
	BlockSize int
	// Blocks holds the column's blocks in row order.
	Blocks []RawBlock
}

// WriteContainerV3Raw writes pre-encoded blocks as one v3 container,
// byte-for-byte: each payload goes into the file exactly as given,
// with its CRC computed over those bytes. It is the salvage-repair
// writer — callers are responsible for payload validity (the index
// CRC machinery will catch mismatches at read time, and repair
// verifies candidates before swapping them in).
//
// The container is assembled in one buffer sized once and written
// with one call. The index, whose length the payload sizes settle,
// is built first with a placeholder for each payload CRC; each
// payload's CRC is then taken as it is copied (or serialized) into
// place and patched into the index's copy.
func WriteContainerV3Raw(w io.Writer, cols []RawColumn) error {
	var index []byte
	var crcAt []int // per block, where its payload CRC goes in index
	payloadLen := 0
	index = binary.AppendUvarint(index, uint64(len(cols)))
	for _, c := range cols {
		if len(c.Name) == 0 || len(c.Name) > maxNameLen {
			return fmt.Errorf("%w: column name %q", ErrCorrupt, c.Name)
		}
		n := 0
		for i := range c.Blocks {
			if c.Blocks[i].Count < 0 {
				return fmt.Errorf("%w: column %q block %d has negative count", ErrCorrupt, c.Name, i)
			}
			n += c.Blocks[i].Count
		}
		index = append(index, byte(len(c.Name)))
		index = append(index, c.Name...)
		index = binary.AppendUvarint(index, uint64(c.BlockSize))
		index = binary.AppendUvarint(index, uint64(n))
		index = binary.AppendUvarint(index, uint64(len(c.Blocks)))
		for i := range c.Blocks {
			b := &c.Blocks[i]
			size := len(b.Payload)
			if b.form != nil {
				var err error
				if size, err = formSize(b.form); err != nil {
					return err
				}
			}
			index = binary.AppendUvarint(index, uint64(b.Count))
			switch {
			case b.Tombstone:
				if size != 0 {
					return fmt.Errorf("%w: column %q block %d is tombstoned but has %d payload bytes",
						ErrCorrupt, c.Name, i, size)
				}
				index = append(index, 2)
				reason := b.TombstoneReason
				if len(reason) > maxNameLen {
					reason = reason[:maxNameLen]
				}
				index = append(index, byte(len(reason)))
				index = append(index, reason...)
			case b.HasStats:
				flag := byte(1)
				if b.Certificate != 0 {
					flag = 3
				}
				index = append(index, flag)
				index = binary.AppendUvarint(index, bitpack.Zigzag(b.Min))
				index = binary.AppendUvarint(index, bitpack.Zigzag(b.Max))
				if flag == 3 {
					index = binary.LittleEndian.AppendUint32(index, b.Certificate)
				}
			default:
				index = append(index, 0)
			}
			index = binary.AppendUvarint(index, uint64(payloadLen))
			index = binary.AppendUvarint(index, uint64(size))
			crcAt = append(crcAt, len(index))
			index = append(index, 0, 0, 0, 0)
			payloadLen += size
		}
	}

	buf := make([]byte, 0, v3PrefixLen+len(index)+4+payloadLen)
	buf = append(buf, MagicV3[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, VersionV3)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(index)+4))
	buf = append(buf, index...)
	buf = append(buf, 0, 0, 0, 0) // the index CRC, once the payload CRCs are in
	k := 0
	for _, c := range cols {
		for i := range c.Blocks {
			b := &c.Blocks[i]
			at := len(buf)
			if b.form != nil {
				buf = appendForm(buf, b.form)
			} else {
				buf = append(buf, b.Payload...)
			}
			binary.LittleEndian.PutUint32(buf[v3PrefixLen+crcAt[k]:], crc32.Checksum(buf[at:], castagnoli))
			k++
		}
	}
	if len(buf) != cap(buf) {
		// formSize and appendForm disagree: the index's extents are wrong.
		return fmt.Errorf("storage: container assembled to %d bytes, sized at %d", len(buf), cap(buf))
	}
	end := v3PrefixLen + len(index)
	binary.LittleEndian.PutUint32(buf[end:], crc32.Checksum(buf[v3PrefixLen:end], castagnoli))
	_, err := w.Write(buf)
	return err
}

// parsedIndex is a decoded v3 index: the form-less column handles and
// each block's payload extent.
type parsedIndex struct {
	cols []BlockedColumn
	locs [][]blockLoc
}

// parseIndexV3 decodes and verifies an index section (including its
// trailing CRC) against the given payload region size.
func parseIndexV3(index []byte, payloadSize int64) (*parsedIndex, error) {
	if len(index) < 4 {
		return nil, fmt.Errorf("%w: index too short", ErrCorrupt)
	}
	body := index[:len(index)-4]
	wantCRC := binary.LittleEndian.Uint32(index[len(index)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, fmt.Errorf("%w (block index)", ErrChecksum)
	}
	d := &decoder{data: body}
	ncols, err := d.count(2)
	if err != nil {
		return nil, err
	}
	p := &parsedIndex{
		cols: make([]BlockedColumn, 0, ncols),
		locs: make([][]blockLoc, 0, ncols),
	}
	var maxEnd int64
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
		locs := make([]blockLoc, 0, nblocks)
		var start int64
		for bi := 0; bi < nblocks; bi++ {
			count, err := d.count(0)
			if err != nil {
				return nil, err
			}
			flag, err := d.u8()
			if err != nil {
				return nil, err
			}
			if flag > 3 {
				return nil, fmt.Errorf("%w: bad stats flag %d", ErrCorrupt, flag)
			}
			blk := blocked.Block{Start: start, Count: count, HasStats: flag == 1 || flag == 3}
			switch flag {
			case 1, 3:
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
				if flag == 3 {
					if blk.Certificate, err = d.u32(); err != nil {
						return nil, err
					}
				}
			case 2:
				rl, err := d.u8()
				if err != nil {
					return nil, err
				}
				if d.pos+int(rl) > len(d.data) {
					return nil, fmt.Errorf("%w: truncated tombstone reason at byte %d", ErrCorrupt, d.pos)
				}
				blk.Tombstone = true
				blk.TombstoneReason = string(d.data[d.pos : d.pos+int(rl)])
				d.pos += int(rl)
			}
			off, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			length, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if blk.Tombstone && length != 0 {
				return nil, fmt.Errorf("%w: column %q block %d is tombstoned but has a %d-byte payload",
					ErrCorrupt, name, bi, length)
			}
			if off > math.MaxInt64 || length > math.MaxInt32 {
				return nil, fmt.Errorf("%w: block extent %d+%d out of range", ErrCorrupt, off, length)
			}
			end := int64(off) + int64(length)
			if end < int64(off) || end > payloadSize {
				return nil, fmt.Errorf("%w: column %q block %d payload extends past region (%d+%d > %d)",
					ErrCorrupt, name, bi, off, length, payloadSize)
			}
			if end > maxEnd {
				maxEnd = end
			}
			crc, err := d.u32()
			if err != nil {
				return nil, err
			}
			locs = append(locs, blockLoc{off: int64(off), length: int64(length), crc: crc})
			col.Blocks = append(col.Blocks, blk)
			start += int64(count)
		}
		if start != int64(n) {
			return nil, fmt.Errorf("%w: column %q blocks cover %d rows, header says %d",
				ErrCorrupt, name, start, n)
		}
		// Materialize persisted tombstones as quarantined blocks:
		// fetches fail fast with ErrTombstone, and a degraded scan's
		// manifest attributes the skip to the persisted reason.
		for bi := range col.Blocks {
			if col.Blocks[bi].Tombstone {
				col.MarkTombstone(bi, col.Blocks[bi].TombstoneReason)
			}
		}
		p.cols = append(p.cols, BlockedColumn{Name: name, Col: col})
		p.locs = append(p.locs, locs)
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in index", ErrCorrupt, len(body)-d.pos)
	}
	if maxEnd != payloadSize {
		return nil, fmt.Errorf("%w: payload region is %d bytes, index covers %d (truncated or padded file)",
			ErrCorrupt, payloadSize, maxEnd)
	}
	return p, nil
}

// decodeBlockPayload checks a block payload against the CRC-32C the
// index recorded for it and decodes it into a form with the expected
// element count, its words in a slab from the free list. The lazy read
// path runs it once per fetch, on the way into the block cache, so a
// cached form is always verified. The entry it returns holds one
// lease, the caller's.
func decodeBlockPayload(data []byte, loc blockLoc, name string, blockIdx, count int) (*cacheEntry, error) {
	if !PayloadCRCMatches(data, loc.crc) {
		return nil, fmt.Errorf("column %q block %d: %w", name, blockIdx, ErrChecksum)
	}
	d := decoder{data: data, pooled: true}
	f, err := d.block(count)
	if err != nil {
		putSlab(d.sl) // nothing holds a failed decode's words
		return nil, fmt.Errorf("column %q block %d: %w", name, blockIdx, err)
	}
	return newCacheEntry(f, loc.length, d.sl, d.reused), nil
}

// PayloadCRCMatches reports whether a block payload hashes to the
// CRC-32C its index entry recorded — the first half of every block
// fetch. Salvage repair runs it apart from the decode, to tell a
// rotten payload from a rotten index CRC.
func PayloadCRCMatches(data []byte, crc uint32) bool {
	return crc32.Checksum(data, castagnoli) == crc
}

// DecodeBlockPayload is the decode half of every block fetch: data
// must decode as one form that consumes it exactly and holds count
// rows, the count the index declares. Failures are ErrCorrupt (or the
// form layer's permanent errors).
func DecodeBlockPayload(data []byte, count int) (*core.Form, error) {
	d := decoder{data: data}
	return d.block(count)
}

// block decodes d's data as one block payload of count rows.
func (d *decoder) block(count int) (*core.Form, error) {
	f, err := d.form(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.data)-d.pos)
	}
	if f.N != count {
		return nil, fmt.Errorf("%w: form length %d, index says %d", ErrCorrupt, f.N, count)
	}
	return f, nil
}

// LoadContainer reads a whole v3 container from r and returns its
// columns with every block form resident and no source behind them —
// what a caller that rewrites or prints every form needs. A reader
// whose first 4 bytes are not the v3 magic is rejected before anything
// past them is read. Tombstoned blocks stay quarantined, with no form.
// Use OpenContainer to query a container without reading its payloads.
func LoadContainer(r io.Reader) ([]BlockedColumn, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: container too short", ErrCorrupt)
		}
		return nil, err
	}
	if err := checkMagic(magic[:]); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data := append(magic[:], rest...)
	cf, err := OpenContainer(bytes.NewReader(data), int64(len(data)), OpenOptions{CacheBytes: -1})
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	cols := cf.Columns()
	for _, bc := range cols {
		for i := range bc.Col.Blocks {
			if bc.Col.Blocks[i].Tombstone {
				continue
			}
			// The form stays resident, so its lease is never released.
			f, err := bc.Col.BlockForm(i)
			if err != nil {
				return nil, err
			}
			bc.Col.Blocks[i].Form = f
		}
		bc.Col.Source = nil
	}
	return cols, nil
}
