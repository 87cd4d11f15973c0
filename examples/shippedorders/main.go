// Shipped orders: the paper's §I scenario end to end, on the
// blocked Column API.
//
// "A table holds shipped order details, with a date column. Data
// accrues over time, so the dates form a monotone-increasing sequence
// with long runs for the orders shipped every day. Applying an RLE
// scheme to the dates, then applying DELTA to the run values,
// achieves a much stronger compression ratio than any single scheme
// individually."
//
// This example builds the whole order table (date, quantity, customer
// and a sorted order id), ingests it in batches through streaming
// ColumnBuilders (orders accrue over time — exactly the builder's
// case), writes a blocked (v3) container file, reads it back and runs
// analytics on the compressed columns with block skipping.
//
//	go run ./examples/shippedorders
package main

import (
	"bytes"
	"fmt"
	"log"

	"lwcomp"
	"lwcomp/internal/workload"
)

func main() {
	const n = 500_000
	const batch = 25_000 // orders arrive in daily batches

	// The order table's columns.
	shipDate := workload.OrderShipDates(n, 64, 730120, 7) // runs of equal days
	quantity := workload.UniformBits(n, 6, 8)             // 0..63 items per order
	for i := range quantity {
		quantity[i]++ // 1..64
	}
	customer := workload.LowCardinality(n, 1000, 9) // 1000 customers, Zipf
	orderID := workload.Sorted(n, 1<<40, 10)        // sorted surrogate keys

	// Ingest: the paper's composition pinned for dates, per-block
	// analyzer choice for the rest. Each builder compresses blocks
	// in the background as batches arrive.
	table := []struct {
		name string
		data []int64
		opts []lwcomp.Option
	}{
		{"ship_date", shipDate, []lwcomp.Option{lwcomp.WithScheme(lwcomp.RLEDeltaNS())}},
		{"quantity", quantity, nil},
		{"customer", customer, nil},
		{"order_id", orderID, nil},
	}

	var cols []lwcomp.NamedColumn
	fmt.Printf("%-10s %-8s %-60s\n", "column", "blocks", "schemes")
	for _, c := range table {
		opts := append([]lwcomp.Option{lwcomp.WithBlockSize(1 << 16)}, c.opts...)
		b := lwcomp.NewColumnBuilder(opts...)
		for i := 0; i < n; i += batch {
			end := i + batch
			if end > n {
				end = n
			}
			if err := b.Append(c.data[i:end]); err != nil {
				log.Fatalf("%s: %v", c.name, err)
			}
		}
		col, err := b.Flush()
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		fmt.Printf("%-10s %-8d ratio %.1f×\n%s\n", c.name, col.NumBlocks(),
			float64(n*8)/float64(col.EncodedBits()/8), col.Describe())
		cols = append(cols, lwcomp.NamedColumn{Name: c.name, Col: col})
	}

	// Persist and reload the whole table as a v3 (blocked) container.
	var file bytes.Buffer
	if err := lwcomp.WriteColumns(&file, cols); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontainer: %d bytes for %d rows × 4 columns (raw %d bytes)\n",
		file.Len(), n, n*8*4)

	loaded, err := lwcomp.ReadColumns(bytes.NewReader(file.Bytes()))
	if err != nil {
		log.Fatal(err)
	}

	// Analytics on the compressed columns.
	byName := map[string]*lwcomp.Column{}
	for _, c := range loaded {
		byName[c.Name] = c.Col
	}

	// Q1: total quantity shipped (SUM on compressed).
	totalQty, err := byName["quantity"].Sum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ1  total quantity shipped:          %d\n", totalQty)

	// Q2: how many orders shipped in a 30-day window. The block
	// index answers most of it without decoding: dates are monotone,
	// so nearly every block misses the window or lies inside it.
	lo := shipDate[n/3]
	hi := lo + 30
	cnt, err := byName["ship_date"].CountRange(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	skipped, whole, consulted := byName["ship_date"].SkipStats(lo, hi)
	fmt.Printf("Q2  orders with %d ≤ ship_date ≤ %d: %d (blocks: %d skipped, %d whole, %d consulted)\n",
		lo, hi, cnt, skipped, whole, consulted)

	// Q3: point lookup by row position (binary search over the block
	// index, then the block's random-access path).
	row := int64(n / 2)
	d, err := byName["ship_date"].PointLookup(row)
	if err != nil {
		log.Fatal(err)
	}
	q, err := byName["quantity"].PointLookup(row)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q3  order at row %d: ship_date=%d quantity=%d\n", row, d, q)

	// Verify everything round-trips exactly.
	for _, c := range table {
		back, err := byName[c.name].Decompress()
		if err != nil {
			log.Fatal(err)
		}
		for i := range c.data {
			if back[i] != c.data[i] {
				log.Fatalf("%s: mismatch at row %d", c.name, i)
			}
		}
	}
	fmt.Println("\nall columns verified lossless")
}
