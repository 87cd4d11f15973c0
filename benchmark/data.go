package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/storage"
)

// The generators below are the benchmark's own: copies in spirit of
// internal/workload, but owned here so a change to the product's
// sample workloads cannot silently change what the benchmark measures.

// rng is splitmix64: tiny, fast, and — unlike math/rand — guaranteed
// never to change under a Go upgrade, so a seed means the same inputs
// forever.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value uniform in [0, n); the modulo bias is below
// 2^-40 for every n the benchmark uses.
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// between returns a value uniform in [lo, hi].
func (r *rng) between(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shipEpoch is day number of the first order (≈ year 2000 in
// proleptic day counts).
const shipEpoch = 730120

// Column order is fixed: request generators and the oracle index
// into dataset.cols by these constants.
const (
	colShip = iota
	colAmount
	colQty
	colStatus
	colPrice
	colLevel
	numCols
)

var colNames = [numCols]string{"ship", "amount", "qty", "status", "price", "level"}

// genShip: sorted day numbers in geometric runs of ~27 rows, so a
// 1,500-day window holds ~35k rows and a 16,384-row block spans ~700
// days — the clustered, run-heavy column (RLE/RPE territory).
func genShip(out []int64, r *rng) {
	day := int64(shipEpoch)
	for i := range out {
		if r.float() < 1.0/27 {
			day++
			if r.float() < 0.1 {
				day += 1 + r.intn(2)
			}
		}
		out[i] = day
	}
}

// genAmount: a ±12 random walk with a slow upward drift (+1 every
// eighth row on average) — locally narrow and globally clustered: a
// 16,384-row block spans a few thousand of a ~500k range, so block
// [min,max] stats refute a narrow range on all but one or two blocks
// (DELTA/FOR/linear-model territory).
func genAmount(out []int64, r *rng) {
	v := int64(1 << 30)
	for i := range out {
		v += r.intn(25) - 12
		if r.intn(8) == 0 {
			v++
		}
		out[i] = v
	}
}

// genQty: uniform 16-bit — incompressible beyond NS, every block
// straddles every range predicate.
func genQty(out []int64, r *rng) {
	for i := range out {
		out[i] = int64(r.next() & 0xFFFF)
	}
}

// statusDomain returns the 8 scattered 40-bit codes of the status
// column; scattered so NS alone cannot exploit the low cardinality.
func statusDomain(seed int64) [8]int64 {
	r := newRNG(seed, 1000+colStatus)
	var d [8]int64
	for i := range d {
		d[i] = int64(r.next() >> 24)
	}
	return d
}

// genStatus: 8 values with a skewed (roughly 1/(k+1)) frequency — the
// DICT column.
func genStatus(out []int64, r *rng, domain [8]int64) {
	// Cumulative weights of 1/(k+1), k = 0..7, scaled to 2^16.
	var cum [8]uint64
	var total float64
	for k := range cum {
		total += 1 / float64(k+1)
	}
	var acc float64
	for k := range cum {
		acc += 1 / float64(k+1)
		cum[k] = uint64(acc / total * 65536)
	}
	cum[7] = 65536
	for i := range out {
		u := r.next() & 0xFFFF
		k := 0
		for u >= cum[k] {
			k++
		}
		out[i] = domain[k]
	}
}

// genPrice: skewed magnitude — 999 values in 1,000 are below 1,024,
// the rest are spikes up to 2^30. The analyzer answers with patched
// FOR, a form the fused range kernels do not cover, so predicates on
// price take the decode-then-filter path.
func genPrice(out []int64, r *rng) {
	for i := range out {
		if r.intn(1000) == 0 {
			out[i] = r.intn(1 << 30)
		} else {
			out[i] = r.intn(1 << 10)
		}
	}
}

// genLevel: a rising line (slope 2.9) with ±40 uniform noise — the
// model-composite column.
func genLevel(out []int64, r *rng) {
	for i := range out {
		out[i] = int64(float64(i)*2.9) + r.intn(81) - 40
	}
}

// genShape fills out with data of column c's shape drawn from r.
func genShape(c int, out []int64, r *rng, domain [8]int64) {
	switch c {
	case colShip:
		genShip(out, r)
	case colAmount:
		genAmount(out, r)
	case colQty:
		genQty(out, r)
	case colStatus:
		genStatus(out, r, domain)
	case colPrice:
		genPrice(out, r)
	case colLevel:
		genLevel(out, r)
	default:
		panic(fmt.Sprintf("benchmark: no column %d", c))
	}
}

// genColumn fills out with column c of table orders for the seed.
func genColumn(c int, out []int64, seed int64) {
	genShape(c, out, newRNG(seed, uint64(c)), statusDomain(seed))
}

// genChunk fills out with write-maintain chunk i: the six shapes in
// rotation, every chunk from its own random stream so no two chunks
// hold the same values.
func genChunk(i int, out []int64, seed int64) {
	genShape(i%numCols, out, newRNG(seed, 10000+uint64(i)), statusDomain(seed))
}

// dataset is table `orders` as plain slices — the oracle's ground
// truth and the encoder's input.
type dataset struct {
	rows int
	cols [numCols][]int64
}

func generateDataset(rows int, seed int64) *dataset {
	d := &dataset{rows: rows}
	for c := range d.cols {
		d.cols[c] = make([]int64, rows)
		genColumn(c, d.cols[c], seed)
	}
	return d
}

// sha256Hex fingerprints the raw values: the determinism test and the
// run header use it to show that a seed names one dataset.
func (d *dataset) sha256Hex() string {
	h := sha256.New()
	var buf [8 << 10]byte
	for _, col := range d.cols {
		for len(col) > 0 {
			n := len(buf) / 8
			if n > len(col) {
				n = len(col)
			}
			for i, v := range col[:n] {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
			}
			h.Write(buf[:n*8])
			col = col[n:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodedTable is what writing the dataset produced: the in-memory
// columns (the traced replay runs kernels on their forms) and the
// bytes on disk.
type encodedTable struct {
	cols        [numCols]*blocked.Column
	storedBytes int64
	encodeNs    int64 // blocked.Encode, summed over columns
	writeNs     int64 // storage.WriteContainerV3 + close, summed
}

// writeTable encodes every column with the analyzer at the given
// block size and writes one `orders.<col>.lwc` v3 container per
// column into dir — the layout lwcd mounts as table `orders`.
func writeTable(d *dataset, dir string, blockSize int) (*encodedTable, error) {
	et := &encodedTable{}
	for c, name := range colNames {
		t0 := time.Now()
		col, err := blocked.Encode(d.cols[c], blocked.EncodeOptions{BlockSize: blockSize})
		if err != nil {
			return nil, fmt.Errorf("encoding column %s: %w", name, err)
		}
		t1 := time.Now()
		path := filepath.Join(dir, "orders."+name+".lwc")
		n, err := writeContainer(path, name, col)
		if err != nil {
			return nil, err
		}
		et.cols[c] = col
		et.storedBytes += n
		et.encodeNs += t1.Sub(t0).Nanoseconds()
		et.writeNs += time.Since(t1).Nanoseconds()
	}
	return et, nil
}

func writeContainer(path, name string, col *blocked.Column) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := storage.WriteContainerV3(f, []storage.BlockedColumn{{Name: name, Col: col}}); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return st.Size(), nil
}
