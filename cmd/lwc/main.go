// Command lwc is the lwcomp command-line tool: generate workloads,
// analyze columns, compress/decompress container files, inspect
// compressed forms and run queries on them without decompressing.
//
// Raw columns use a minimal binary format (magic "LWR1", varint
// count, little-endian int64s). Compressed containers are the
// storage-package format.
//
// Usage:
//
//	lwc gen -workload dates -n 1000000 -o dates.raw
//	lwc stats -i dates.raw
//	lwc compress -i dates.raw -o dates.lwc -scheme auto
//	lwc compress -i dates.raw -o dates.lwc --block-size 65536 --parallel 8
//	lwc compress -i dates.raw -o dates.lwc -scheme 'rle(lengths=ns, values=delta(deltas=vns[32]))'
//	lwc stat -i dates.lwc --cache
//	lwc inspect -i dates.lwc
//	lwc decompress -i dates.lwc -o back.raw
//	lwc query -i dates.lwc -sum
//	lwc query -i dates.lwc -range 730200:730400
//	lwc query -i orders.lwc -where 'date >= 730200 and date <= 730400 and status = 1' -sum -col amount
//	lwc verify -i dates.lwc
//	lwc verify -json /data/containers/*.lwc
//	lwc repair -dir /data/containers -json
//	lwc compact -dry-run -dir /data/containers
//	lwc compact -dir /data/containers -min-gain-bytes 4096 -merge
//	lwc upgrade -i old.lwc -o new.lwc
//	lwc serve -dir /data/containers -addr 127.0.0.1:7207
//
// compress writes lazily openable (v3) containers, the one format every
// other command reads. upgrade is the only command that reads a v1 or
// v2 container written by an older build: it rewrites the columns as
// v3, adopting each v1 column as one block with [min, max] stats and
// keeping v2 blocks, forms and stats as stored. Every other command
// rejects such a file after its 4-byte magic and names upgrade.
// Container writes are crash-safe: the file is written to a temporary name in the same
// directory, fsynced, and renamed into place, so an interrupted
// compress never leaves a torn container under the final name. stat,
// query and decompress open containers lazily — header and block index
// only, each block payload a positioned read on demand — so stat never
// decodes a payload and query reads only the blocks the query touches.
//
// verify is the offline fsck: it re-reads every block payload, checks
// its CRC, decodes and decompresses it, and re-derives the block's
// [min, max] against the index stats, reporting every finding — with
// -json as one machine-readable report per container (container,
// column, block, row range, reason). Exit codes: 0 every container
// clean, 1 integrity findings, 2 environmental failure.
//
// repair is the salvage pass for containers verify condemns: good
// blocks are preserved byte-for-byte, transiently corrupted reads are
// retried, falsified index stats are re-derived from the data, and
// only truly lost blocks are tombstoned — the container keeps serving
// its surviving rows, with the lost row ranges recorded exactly (the
// same manifest shape degraded scans report). The rebuilt generation
// is verified before an atomic temp+rename swap. Exit codes: 0 clean
// or repaired, 1 unrepairable container(s), 2 environmental failure.
// The same salvage runs inside lwcd under -scrub-heal.
//
// compact is the single-shot recompaction pass: each container is
// re-analyzed block by block with the encoder's search and
// atomically rewritten only when the byte win clears the
// threshold — the candidate is verified value-for-value before the
// rename, so a failed rewrite leaves the old file untouched. A
// container whose every block inspect reports as certified is already
// that search's result and is skipped from its index. -dry-run
// estimates per-container savings from the block stats alone, without
// a trial encode or a write; -merge coalesces groups of small
// same-table single-column containers into one container per table.
// The same pass runs continuously inside lwcd under -compact.
//
// query -where runs a table scan over all of a container's columns:
// the predicate (comparisons and in-lists under and/or/not; and binds
// tighter) is planned per block, blocks any conjunct's [min, max]
// stats refute are skipped without a read, and -sum aggregates the
// named column over just the surviving rows. --cache (on stat and
// query) prints the shared block cache's budget and traffic.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"lwcomp"
	"lwcomp/internal/compact"
	"lwcomp/internal/scheme"
	"lwcomp/internal/scrub"
	"lwcomp/internal/server"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "upgrade":
		err = cmdUpgrade(os.Args[2:])
	case "serve":
		err = server.Main(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lwc: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lwc %s: %v\n", os.Args[1], err)
		var ce *codedError
		if errors.As(err, &ce) {
			os.Exit(ce.code)
		}
		os.Exit(1)
	}
}

// codedError carries an explicit process exit status for commands
// with documented exit codes (verify, repair): 1 for findings, 2 for
// environmental failures.
type codedError struct {
	code int
	err  error
}

// Error implements error.
func (e *codedError) Error() string { return e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *codedError) Unwrap() error { return e.err }

func usage() {
	fmt.Fprintln(os.Stderr, `lwc <command> [flags]

commands:
  gen         generate a synthetic workload column (raw file)
  stats       analyze a raw column
  compress    compress a raw column into a container
  decompress  decompress a container back to a raw column
  stat        print a container's block index without decoding payloads
  inspect     show the scheme tree and sizes of a container
  query       run sum/range/point queries, or -where table scans, on a container
  verify      fsck a container: re-read, CRC-check and decode every block
  repair      salvage a damaged container: preserve good blocks, tombstone lost ones
  compact     re-analyze containers and atomically rewrite the ones that shrink
  upgrade     rewrite a v1 or v2 container from an older build as v3
  serve       serve a directory of containers as tables over HTTP (same as lwcd)

run 'lwc <command> -h' for flags`)
}

// Raw column file format.
var rawMagic = [4]byte{'L', 'W', 'R', '1'}

func writeRaw(path string, col []int64) error {
	buf := make([]byte, 0, 8+len(col)*8)
	buf = append(buf, rawMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(col)))
	for _, v := range col {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return storage.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

func readRaw(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 5 || string(data[:4]) != string(rawMagic[:]) {
		return nil, errors.New("not a raw column file (magic LWR1)")
	}
	n, sz := binary.Uvarint(data[4:])
	if sz <= 0 {
		return nil, errors.New("corrupt raw header")
	}
	pos := 4 + sz
	if uint64(len(data)-pos) != n*8 {
		return nil, fmt.Errorf("raw payload %d bytes, want %d", len(data)-pos, n*8)
	}
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
	}
	return col, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "dates", "dates|walk|outliers|trend|lowcard|skewed|runs|sorted|uniform")
	n := fs.Int("n", 1<<20, "column length")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("o", "column.raw", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var col []int64
	switch *name {
	case "dates":
		col = workload.OrderShipDates(*n, 64, 730120, *seed)
	case "walk":
		col = workload.RandomWalk(*n, 10, 1<<33, *seed)
	case "outliers":
		col = workload.OutlierWalk(*n, 10, 0.01, 1<<38, *seed)
	case "trend":
		col = workload.TrendNoise(*n, 8, 12, *seed)
	case "lowcard":
		col = workload.LowCardinality(*n, 32, *seed)
	case "skewed":
		col = workload.SkewedMagnitude(*n, 40, *seed)
	case "runs":
		col = workload.Runs(*n, 64, 1<<16, *seed)
	case "sorted":
		col = workload.Sorted(*n, 1<<40, *seed)
	case "uniform":
		col = workload.UniformBits(*n, 16, *seed)
	default:
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := writeRaw(*out, col); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d values (%d bytes raw)\n", *out, len(col), len(col)*8)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("i", "", "input raw column")
	if err := fs.Parse(args); err != nil {
		return err
	}
	col, err := readRaw(*in)
	if err != nil {
		return err
	}
	st := lwcomp.Analyze(col)
	fmt.Printf("n            %d\n", st.N)
	fmt.Printf("min / max    %d / %d\n", st.Min, st.Max)
	fmt.Printf("runs         %d (avg length %.1f)\n", st.Runs, st.AvgRunLength())
	fmt.Printf("distinct     %d%s\n", st.Distinct, satSuffix(st))
	fmt.Printf("monotone     non-decreasing=%v non-increasing=%v\n", st.NonDecreasing, st.NonIncreasing)
	fmt.Printf("value width  %d bits (zigzag)\n", st.ValueWidth)
	fmt.Printf("delta width  %d bits (zigzag)\n", st.MaxDeltaWidth)
	fmt.Printf("range width  %d bits (max-min)\n", st.RangeWidth)
	return nil
}

func satSuffix(st lwcomp.Stats) string {
	if st.DistinctSaturated() {
		return "+ (saturated)"
	}
	return ""
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("i", "", "input raw column")
	out := fs.String("o", "column.lwc", "output container")
	schemeExpr := fs.String("scheme", "auto", "scheme expression or 'auto'")
	name := fs.String("name", "col0", "column name inside the container")
	blockSize := fs.Int("block-size", 0, "values per block (0 = whole column as one block)")
	parallel := fs.Int("parallel", 0, "concurrent block encoders (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := readRaw(*in)
	if err != nil {
		return err
	}
	opts := []lwcomp.Option{
		lwcomp.WithBlockSize(*blockSize),
		lwcomp.WithParallelism(*parallel),
	}
	if *schemeExpr != "auto" {
		s, err := lwcomp.ParseScheme(*schemeExpr)
		if err != nil {
			return err
		}
		opts = append(opts, lwcomp.WithScheme(s))
	}
	col, err := lwcomp.Encode(raw, opts...)
	if err != nil {
		return err
	}
	if err := lwcomp.WriteColumnsFile(*out, []lwcomp.NamedColumn{{Name: *name, Col: col}}); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d -> %d bytes (ratio %.2f), %d block(s)\n",
		*out, len(raw)*8, st.Size(), float64(len(raw)*8)/float64(st.Size()), col.NumBlocks())
	fmt.Println(col.Describe())
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("i", "", "input container")
	out := fs.String("o", "column.raw", "output raw column")
	col := fs.String("col", "", "column name (default: first)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	column, name, closeCol, err := loadColumn(*in, *col)
	if err != nil {
		return err
	}
	defer closeCol()
	data, err := column.Decompress()
	if err != nil {
		return err
	}
	if err := writeRaw(*out, data); err != nil {
		return err
	}
	fmt.Printf("wrote %s: column %q, %d values\n", *out, name, len(data))
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("i", "", "input container")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	cols, err := lwcomp.ReadColumns(f)
	if err != nil {
		return err
	}
	for _, c := range cols {
		var sz int
		for i := range c.Col.Blocks {
			s, err := lwcomp.EncodedSize(c.Col.Blocks[i].Form)
			if err != nil {
				return err
			}
			sz += s
		}
		fmt.Printf("column %q: n=%d, %d block(s), %d bytes, ratio %.2f\n",
			c.Name, c.Col.N, c.Col.NumBlocks(), sz, float64(c.Col.N*8)/float64(sz))
		for i := range c.Col.Blocks {
			b := &c.Col.Blocks[i]
			line := fmt.Sprintf("  block %d: rows %d..%d", i, b.Start, b.Start+int64(b.Count)-1)
			if b.HasStats {
				line += fmt.Sprintf(", [%d, %d]", b.Min, b.Max)
			}
			switch b.Certificate {
			case 0:
			case scheme.SearchFingerprint():
				line += ", certified"
			default:
				line += fmt.Sprintf(", certified by another search (%08x)", b.Certificate)
			}
			fmt.Println(line)
			printTree(b.Form, "    ")
		}
	}
	return nil
}

func printTree(f *lwcomp.Form, indent string) {
	params := ""
	for _, k := range f.Params.Keys() {
		params += fmt.Sprintf(" %s=%d", k, f.Params[k])
	}
	payload := ""
	switch {
	case f.Leaf != nil:
		payload = fmt.Sprintf(" leaf[%d]", len(f.Leaf))
	case f.Packed != nil:
		payload = fmt.Sprintf(" packed[%d words]", len(f.Packed))
	case f.Bytes != nil:
		payload = fmt.Sprintf(" bytes[%d]", len(f.Bytes))
	}
	fmt.Printf("%s%s n=%d%s%s\n", indent, f.Scheme, f.N, params, payload)
	for _, name := range f.ChildNames() {
		fmt.Printf("%s%s:\n", indent+"  ", name)
		printTree(f.Children[name], indent+"    ")
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("i", "", "input container")
	col := fs.String("col", "", "column name (default: first)")
	doSum := fs.Bool("sum", false, "compute SUM (with -where: over the matching rows)")
	doApprox := fs.Bool("approx-sum", false, "bound SUM from the model only")
	rangeExpr := fs.String("range", "", "count rows in lo:hi")
	point := fs.Int64("point", -1, "look up one row")
	where := fs.String("where", "", "predicate over the container's columns, e.g. 'date >= 730200 and status = 1'")
	describe := fs.Bool("describe", false, "print per-block schemes (decodes every block)")
	cache := fs.Bool("cache", false, "print block-cache statistics after the queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *where != "" {
		// The single-column query flags have no meaning under a table
		// scan; reject the combination instead of silently ignoring it.
		if *rangeExpr != "" || *point >= 0 || *doApprox || *describe {
			return errors.New("-where cannot be combined with -range, -point, -approx-sum or -describe")
		}
		return queryWhere(*in, *where, *col, *doSum, *cache)
	}
	column, name, closeCol, err := loadColumn(*in, *col)
	if err != nil {
		return err
	}
	defer closeCol()
	fmt.Printf("column %q (%d block(s))\n", name, column.NumBlocks())
	if *describe {
		fmt.Println(column.Describe())
	}
	if *doSum {
		s, err := column.Sum()
		if err != nil {
			return err
		}
		fmt.Printf("sum = %d\n", s)
	}
	if *doApprox {
		iv, err := column.ApproxSum()
		if err != nil {
			return err
		}
		fmt.Printf("sum ∈ [%d, %d] (width %d, midpoint %d)\n", iv.Lower, iv.Upper, iv.Width(), iv.Estimate())
	}
	if *rangeExpr != "" {
		parts := strings.SplitN(*rangeExpr, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("range must be lo:hi, got %q", *rangeExpr)
		}
		var lo, hi int64
		if _, err := fmt.Sscan(parts[0], &lo); err != nil {
			return err
		}
		if _, err := fmt.Sscan(parts[1], &hi); err != nil {
			return err
		}
		c, err := column.CountRange(lo, hi)
		if err != nil {
			return err
		}
		skipped, whole, consulted := column.SkipStats(lo, hi)
		fmt.Printf("count(%d ≤ v ≤ %d) = %d (blocks: %d skipped, %d whole, %d consulted)\n",
			lo, hi, c, skipped, whole, consulted)
	}
	if *point >= 0 {
		v, err := column.PointLookup(*point)
		if err != nil {
			return err
		}
		fmt.Printf("col[%d] = %d\n", *point, v)
	}
	if *cache {
		printCacheStats(column)
	}
	return nil
}

// cmdVerify fsck-walks containers: every block payload re-read,
// CRC-checked, decoded, decompressed, and its re-derived [min, max]
// compared against the index stats. Findings print one per line (or,
// with -json, one machine-readable report per container per line).
// Exit codes: 0 every container clean, 1 integrity findings, 2
// environmental failure (file unreadable, transport-level I/O).
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("i", "", "container to verify (or pass containers as positional arguments)")
	quiet := fs.Bool("q", false, "print findings only, no per-file summary")
	jsonOut := fs.Bool("json", false, "print one JSON report per container (columns, blocks, issues with row ranges)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if *in != "" {
		paths = append([]string{*in}, paths...)
	}
	if len(paths) == 0 {
		return errors.New("nothing to verify: pass -i or positional container paths")
	}
	enc := json.NewEncoder(os.Stdout)
	bad := 0
	for _, path := range paths {
		rep, err := storage.VerifyFile(path)
		if err != nil {
			return &codedError{2, err}
		}
		if !rep.OK() {
			bad++
		}
		if *jsonOut {
			if err := enc.Encode(rep); err != nil {
				return &codedError{2, err}
			}
			continue
		}
		for _, issue := range rep.Issues {
			fmt.Printf("%s: %s\n", path, issue)
		}
		for _, ts := range rep.Tombstones {
			fmt.Printf("%s: tombstone: %s\n", path, ts)
		}
		if !*quiet {
			status := "ok"
			if !rep.OK() {
				status = fmt.Sprintf("%d issue(s)", len(rep.Issues))
			}
			fmt.Printf("%s: %d column(s), %d block(s): %s\n", path, rep.Columns, rep.Blocks, status)
		}
	}
	if bad > 0 {
		return &codedError{1, fmt.Errorf("%d of %d container(s) failed verification", bad, len(paths))}
	}
	return nil
}

// cmdRepair salvage-repairs containers: good blocks are preserved
// byte-for-byte, blocks whose first read lies are re-read through the
// retry policy, index stats falsified by rot are re-derived, and only
// blocks that stay unreadable are tombstoned with their exact row
// range. The rebuilt generation is verified before an atomic swap; an
// interrupted repair leaves the old file intact. Exit codes: 0 every
// container clean or repaired, 1 at least one unrepairable, 2
// environmental failure.
func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of *.lwc containers to repair (or pass containers as positional arguments)")
	jsonOut := fs.Bool("json", false, "print one JSON result per container")
	attempts := fs.Int("read-attempts", 0, "full re-reads per damaged block before tombstoning it (0 = 3)")
	retries := fs.Int("read-retries", 0, "retries per transiently failed read below the block layer (0 = 3, negative = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if (*dir == "") == (len(paths) == 0) {
		return errors.New("pass either -dir or positional container paths")
	}
	if *dir != "" {
		// Single-writer open: crash litter from an interrupted swap is
		// safe to sweep at any age.
		if removed, err := storage.SweepTempFiles(*dir, 0); err == nil && len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "removed %d orphaned temp file(s)\n", len(removed))
		}
		var err error
		paths, err = compact.ListContainers(*dir)
		if err != nil {
			return &codedError{2, err}
		}
	}
	opt := scrub.RepairOptions{ReadAttempts: *attempts, Retry: retryPolicy(*retries)}
	enc := json.NewEncoder(os.Stdout)
	unrepairable := 0
	for _, path := range paths {
		res, err := scrub.RepairFile(path, opt)
		if err != nil {
			return &codedError{2, err}
		}
		if *jsonOut {
			if err := enc.Encode(res); err != nil {
				return &codedError{2, err}
			}
		} else {
			switch res.Action {
			case scrub.ActionClean:
				fmt.Printf("%s: clean, %d column(s), %d block(s) (%d tombstone(s) carried)\n",
					res.Path, res.Columns, res.Blocks, res.CarriedTombstones)
			case scrub.ActionRepaired:
				fmt.Printf("%s: repaired, %d -> %d bytes: %d preserved, %d reread, %d stats fixed, %d checksums fixed, %d tombstoned\n",
					res.Path, res.BytesBefore, res.BytesAfter,
					res.Preserved, res.Reread, res.StatsFixed, res.ChecksumsFixed, res.Tombstoned)
			case scrub.ActionUnrepairable:
				fmt.Printf("%s: UNREPAIRABLE, left untouched: %s\n", res.Path, res.Err)
			}
		}
		if res.Action == scrub.ActionUnrepairable {
			unrepairable++
		}
	}
	if unrepairable > 0 {
		return &codedError{1, fmt.Errorf("%d of %d container(s) unrepairable", unrepairable, len(paths))}
	}
	return nil
}

// retryPolicy maps the CLI retry knob onto the storage layer's
// backoff policy, mirroring the server's mapping.
func retryPolicy(retries int) storage.RetryPolicy {
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		return storage.RetryPolicy{}
	}
	return storage.RetryPolicy{
		MaxRetries: retries,
		BaseDelay:  time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
	}
}

// cmdCompact runs one recompaction pass: walk the given containers
// (or a directory of them), re-analyze each, and atomically rewrite
// the ones whose byte win clears the threshold, printing a per-
// container report of bytes before/after and CPU spent. With
// -dry-run it only estimates savings from the block stats, largest
// first. Any failed container makes the command exit non-zero.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of *.lwc containers to compact (or pass containers as positional arguments)")
	dryRun := fs.Bool("dry-run", false, "estimate savings from block stats only; no trial encode, no write")
	minGain := fs.Int64("min-gain-bytes", 0, "rewrite threshold in bytes (0 = 4096, negative = any gain)")
	minFrac := fs.Float64("min-gain-frac", 0, "rewrite threshold as a fraction of the old container size (0 = off)")
	parallel := fs.Int("parallel", 0, "concurrent block encoders (0 = GOMAXPROCS)")
	merge := fs.Bool("merge", false, "also merge small same-table single-column containers (directory mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if (*dir == "") == (len(paths) == 0) {
		return errors.New("pass either -dir or positional container paths")
	}
	if *merge && *dir == "" {
		return errors.New("-merge needs -dir (it coalesces sibling files)")
	}
	if *dir != "" && !*dryRun {
		// Open-time janitor: litter from a crash mid-swap; this is the
		// directory's single writer, so age 0 is safe.
		if removed, err := storage.SweepTempFiles(*dir, 0); err == nil && len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "removed %d orphaned temp file(s)\n", len(removed))
		}
	}
	c := compact.New(compact.Options{
		MinGainBytes:    *minGain,
		MinGainFraction: *minFrac,
		Parallelism:     *parallel,
		MergeSmall:      *merge,
	})

	if *dryRun {
		var ests []compact.Estimate
		if *dir != "" {
			var err error
			ests, err = c.EstimateDir(*dir)
			if err != nil {
				return err
			}
		} else {
			for _, p := range paths {
				est, err := c.EstimateFile(p)
				if err != nil {
					return err
				}
				ests = append(ests, est)
			}
			sort.Slice(ests, func(i, j int) bool { return ests[i].EstSavings() > ests[j].EstSavings() })
		}
		var total int64
		for _, est := range ests {
			fmt.Printf("%s: %d bytes, est payload %d -> %d, est savings %d bytes (%.1f%%)\n",
				est.Path, est.FileBytes, est.PayloadBytes, est.EstPayloadBytes,
				est.EstSavings(), 100*est.EstSavingsFraction())
			total += est.EstSavings()
		}
		fmt.Printf("dry run: %d container(s), est %d bytes reclaimable\n", len(ests), total)
		return nil
	}

	var rep *compact.Report
	if *dir != "" {
		var err error
		rep, err = c.CompactDir(*dir)
		if err != nil {
			return err
		}
	} else {
		rep = &compact.Report{}
		for _, p := range paths {
			res, err := c.CompactFile(p)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, res)
		}
	}
	for _, res := range rep.Results {
		switch res.Action {
		case compact.ActionRewritten:
			fmt.Printf("%s: rewritten, %d -> %d bytes (saved %d, %.2fs cpu)\n",
				res.Path, res.BytesBefore, res.BytesAfter, res.Gain(), res.CPUSeconds)
		case compact.ActionMerged:
			fmt.Printf("%s: merged %d part(s), %d -> %d bytes (%.2fs cpu)\n",
				res.Path, len(res.MergedFrom), res.BytesBefore, res.BytesAfter, res.CPUSeconds)
		case compact.ActionSkipped:
			fmt.Printf("%s: skipped, %d bytes (candidate %d under threshold, %.2fs cpu)\n",
				res.Path, res.BytesBefore, res.CandidateBytes, res.CPUSeconds)
		case compact.ActionFailed:
			fmt.Printf("%s: FAILED, old generation kept: %v\n", res.Path, res.Err)
		}
	}
	rewritten, skipped, failed, mrg := rep.Counts()
	fmt.Printf("compacted %d container(s): %d rewritten, %d merged, %d skipped, %d failed; %d bytes reclaimed, %.2fs cpu\n",
		len(rep.Results), rewritten, mrg, skipped, failed, rep.BytesReclaimed(), rep.CPUSeconds())
	if failed > 0 {
		return fmt.Errorf("%d container(s) failed compaction", failed)
	}
	return nil
}

// cmdUpgrade rewrites a v1 or v2 container from an older build as a
// v3 container — the only place those formats are still decoded. The
// output is written crash-safely; the input is left as it was.
func cmdUpgrade(args []string) error {
	fs := flag.NewFlagSet("upgrade", flag.ExitOnError)
	in := fs.String("i", "", "v1 or v2 container to read")
	out := fs.String("o", "", "v3 container to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("pass both -i and -o")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	cols, err := storage.ReadLegacy(data)
	if err != nil {
		return err
	}
	if err := lwcomp.WriteColumnsFile(*out, cols); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d column(s) from format v%c container %s\n", *out, len(cols), data[3], *in)
	return nil
}

// queryWhere runs a table scan: the predicate is parsed in the
// mini-language, planned per block across every column it names, and
// evaluated on the compressed forms — on a lazily opened container
// only the blocks the plan admits are read. With -sum, the named (or
// first) column is aggregated over the survivors, decoding only the
// blocks that still hold matches.
func queryWhere(in, where, sumCol string, doSum, cache bool) error {
	expr, err := lwcomp.ParsePredicate(where)
	if err != nil {
		return err
	}
	tbl, err := lwcomp.OpenTable(in)
	if err != nil {
		return err
	}
	defer tbl.Close()
	scan, err := tbl.Scan(expr)
	if err != nil {
		return err
	}
	defer scan.Release()
	fmt.Printf("where %s: %d of %d rows match\n", expr, scan.Count(), tbl.NumRows())
	if doSum {
		name := sumCol
		if name == "" {
			name = tbl.ColumnNames()[0]
		}
		s, err := scan.Sum(name)
		if err != nil {
			return err
		}
		fmt.Printf("sum(%s) over matches = %d\n", name, s)
	}
	if cache {
		col, err := tbl.Column(tbl.ColumnNames()[0])
		if err != nil {
			return err
		}
		printCacheStats(col)
	}
	return nil
}

// printCacheStats renders an opened column's shared block-cache
// counters.
func printCacheStats(col *lwcomp.Column) {
	st, _ := col.CacheStats()
	fmt.Printf("cache: %d/%d bytes resident, %d hits, %d misses, %d evictions\n",
		st.BytesUsed, st.BytesBudget, st.Hits, st.Misses, st.Evictions)
}

// loadColumn lazily opens one column from a container. The returned
// func releases the container.
func loadColumn(path, name string) (*lwcomp.Column, string, func() error, error) {
	cf, err := lwcomp.OpenContainer(path)
	if err != nil {
		return nil, "", nil, err
	}
	cols := cf.Columns()
	if len(cols) == 0 {
		cf.Close()
		return nil, "", nil, errors.New("container has no columns")
	}
	if name == "" {
		return cols[0].Col, cols[0].Name, cf.Close, nil
	}
	for _, c := range cols {
		if c.Name == name {
			return c.Col, c.Name, cf.Close, nil
		}
	}
	cf.Close()
	return nil, "", nil, fmt.Errorf("column %q not found", name)
}

// cmdStat prints a container's block index — column layout, per-block
// row spans, [min, max] stats and payload extents — without decoding
// a single block payload: it reads only the file header and index.
func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input container")
	cache := fs.Bool("cache", false, "print the block cache's budget and traffic counters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cf, err := lwcomp.OpenContainer(*in)
	if err != nil {
		return err
	}
	defer cf.Close()
	fmt.Printf("%s: %d column(s), lazy (v3)\n", *in, len(cf.Columns()))
	for ci, c := range cf.Columns() {
		fmt.Printf("column %q: n=%d, block-size=%d, %d block(s)\n",
			c.Name, c.Col.N, c.Col.BlockSize, c.Col.NumBlocks())
		extents := cf.Extents(ci)
		for bi := range c.Col.Blocks {
			b := &c.Col.Blocks[bi]
			stats := ""
			if b.HasStats {
				stats = fmt.Sprintf(" [%d, %d]", b.Min, b.Max)
			}
			e := extents[bi]
			fmt.Printf("  block %d: rows %d..%d%s payload %d bytes @ %d (crc %08x)\n",
				bi, b.Start, b.Start+int64(b.Count)-1, stats, e.Bytes, e.Offset, e.CRC)
		}
	}
	if *cache && len(cf.Columns()) > 0 {
		// stat decodes nothing, so the counters are all zero here; the
		// point is the budget, and that the same line under `query
		// -cache` shows the traffic a workload actually generated.
		printCacheStats(cf.Columns()[0].Col)
	}
	return nil
}
