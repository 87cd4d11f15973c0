package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lwcomp/internal/blocked"
	"lwcomp/internal/scheme"
	"lwcomp/internal/server"
	"lwcomp/internal/storage"
	"lwcomp/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "V",
		Title: "Background recompaction: write fast now, shrink later",
		Claim: `a directory ingested on the fast path (pruned or fixed-scheme search) carries recoverable bytes, and the background compactor recovers them — shrinking toward the exhaustive-search size while concurrent queries run to completion with zero failures and zero rejections, the swap hidden behind atomic rename`,
		Run:   runExpV,
	})
}

// expVMetrics is the slice of /metrics EXP-V records: query outcomes
// plus the compaction section (full shape in internal/server).
type expVMetrics struct {
	Queries struct {
		Total    int64 `json:"total"`
		Rejected int64 `json:"rejected"`
		Timeouts int64 `json:"timeouts"`
		Errors   int64 `json:"errors"`
	} `json:"queries"`
	Compaction struct {
		Scanned    int64   `json:"containers_scanned"`
		Rewritten  int64   `json:"containers_rewritten"`
		Skipped    int64   `json:"containers_skipped"`
		Failed     int64   `json:"containers_failed"`
		Reclaimed  int64   `json:"bytes_reclaimed"`
		CPUSeconds float64 `json:"cpu_seconds"`
		Generation uint64  `json:"generation"`
	} `json:"compaction"`
}

// expVDirBytes sums the directory's *.lwc sizes.
func expVDirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".lwc" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// countingWriter tallies bytes without keeping them — the exhaustive
// reference needs sizes, not files.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func runExpV(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "V",
		Title: "Background recompaction: write fast now, shrink later",
		Claim: "fast-path ingest, then compact in the background: the directory shrinks toward the exhaustive-search size with zero failed or rejected queries during the sweep",
		Headers: []string{
			"stage", "containers", "bytes", "x raw", "vs exhaustive",
		},
	}

	// A skewed workload ingested the fast way: the magnitude-skewed
	// column takes a fixed ns bitpack (no analyzer at all — maximum
	// write speed, every block padded to its widest value), the rest a
	// heavily pruned search (top-1 estimate over a tiny sample).
	dir, err := os.MkdirTemp("", "lwcomp-expv-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ns, err := scheme.Parse("ns")
	if err != nil {
		return nil, err
	}
	cols := []struct {
		name string
		data []int64
		opts blocked.EncodeOptions
	}{
		{"amount", workload.SkewedMagnitude(cfg.N, 40, cfg.Seed), blocked.EncodeOptions{BlockSize: 1 << 14, Scheme: ns}},
		{"date", workload.OrderShipDates(cfg.N, 64, 730120, cfg.Seed+1), blocked.EncodeOptions{BlockSize: 1 << 14, TrialK: 1, SampleSize: 64}},
		{"status", workload.LowCardinality(cfg.N, 8, cfg.Seed+2), blocked.EncodeOptions{BlockSize: 1 << 14, TrialK: 1, SampleSize: 64}},
	}
	rawBytes := int64(0)
	refBytes := int64(0)
	for _, c := range cols {
		rawBytes += int64(len(c.data)) * 8
		col, err := blocked.Encode(c.data, c.opts)
		if err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(dir, "orders."+c.name+".lwc"))
		if err != nil {
			return nil, err
		}
		if err := storage.WriteContainerV3(f, []storage.BlockedColumn{{Name: "c", Col: col}}); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		// The exhaustive reference: what the same data costs when every
		// candidate's size is established — the floor compaction aims at.
		ref, err := blocked.Encode(c.data, blocked.EncodeOptions{BlockSize: 1 << 14, Exhaustive: true})
		if err != nil {
			return nil, err
		}
		var cw countingWriter
		if err := storage.WriteContainerV3(&cw, []storage.BlockedColumn{{Name: "c", Col: ref}}); err != nil {
			return nil, err
		}
		refBytes += cw.n
	}
	before, err := expVDirBytes(dir)
	if err != nil {
		return nil, err
	}

	// Serve the directory with the compaction daemon armed but idle
	// (interval far out; the sweep is triggered over HTTP for a
	// deterministic run). Client concurrency stays under the admission
	// limit so the low-priority sweep finds the spare capacity it
	// yields for.
	srv, err := server.New(server.Config{
		Dir:             dir,
		MaxConcurrent:   64,
		MaxQueue:        100000,
		Compact:         true,
		CompactInterval: time.Hour,
		// Any positive gain rewrites: the experiment measures the full
		// recoverable gap, thresholding is EXP-V's subject elsewhere.
		CompactMinGainBytes: -1,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Continuous traffic through the whole sweep: 16 clients looping a
	// representative mixed query until the sweep returns.
	body, _ := json.Marshal(map[string]any{
		"table": "orders", "where": "status = 3", "op": "sum", "columns": []string{"amount"}})
	stop := make(chan struct{})
	var okN, badN atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					badN.Add(1)
					return
				}
				if resp.StatusCode == http.StatusOK {
					okN.Add(1)
				} else {
					badN.Add(1)
				}
				buf := make([]byte, 4096)
				for {
					if _, err := resp.Body.Read(buf); err != nil {
						break
					}
				}
				resp.Body.Close()
			}
		}()
	}
	sweepStart := time.Now()
	resp, err := http.Post(ts.URL+"/-/compact", "application/json", nil)
	if err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	var sweep struct {
		Rewritten int  `json:"rewritten"`
		Aborted   bool `json:"aborted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sweep)
	resp.Body.Close()
	sweepWall := time.Since(sweepStart)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	after, err := expVDirBytes(dir)
	if err != nil {
		return nil, err
	}
	var m expVMetrics
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if err != nil {
		return nil, err
	}

	// The acceptance gates: measurable storage reclaimed, and zero
	// failed or blocked queries while the swap happened underneath.
	if sweep.Rewritten == 0 || after >= before {
		return nil, fmt.Errorf("EXP-V: sweep reclaimed nothing (%d rewritten, %d -> %d bytes)", sweep.Rewritten, before, after)
	}
	if sweep.Aborted {
		return nil, fmt.Errorf("EXP-V: sweep aborted")
	}
	if bad := badN.Load(); bad > 0 {
		return nil, fmt.Errorf("EXP-V: %d queries failed or were rejected during the concurrent sweep", bad)
	}
	if m.Queries.Rejected > 0 || m.Queries.Errors > 0 || m.Queries.Timeouts > 0 {
		return nil, fmt.Errorf("EXP-V: server counted %d rejections, %d errors, %d timeouts during the sweep",
			m.Queries.Rejected, m.Queries.Errors, m.Queries.Timeouts)
	}
	if m.Compaction.Failed > 0 {
		return nil, fmt.Errorf("EXP-V: %d containers failed compaction", m.Compaction.Failed)
	}

	vsRef := func(b int64) string { return f2(float64(b) / float64(refBytes)) }
	t.AddRow("fast-path ingest", itoa(len(cols)), itoa(int(before)), f2(float64(rawBytes)/float64(before)), vsRef(before))
	t.AddRow("after compaction", itoa(len(cols)), itoa(int(after)), f2(float64(rawBytes)/float64(after)), vsRef(after))
	t.AddRow("exhaustive reference", itoa(len(cols)), itoa(int(refBytes)), f2(float64(rawBytes)/float64(refBytes)), "1.00")

	reclaimed := before - after
	t.Metrics = append(t.Metrics,
		Metric{Name: "compact/bytes reclaimed", NsPerOp: float64(sweepWall.Nanoseconds()), MBPerS: float64(reclaimed) / 1e6 / m.Compaction.CPUSeconds},
		Metric{Name: "compact/queries during sweep", AllocsPerOp: float64(okN.Load())},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("sweep reclaimed %d of %d bytes (%.1f%%) for %.2fs compact cpu — %.1f MB per cpu-second; generation %d",
			reclaimed, before, 100*float64(reclaimed)/float64(before), m.Compaction.CPUSeconds,
			float64(reclaimed)/1e6/m.Compaction.CPUSeconds, m.Compaction.Generation),
		fmt.Sprintf("%d queries completed during the concurrent sweep with zero failures, rejections or timeouts", okN.Load()),
		"compact/bytes reclaimed: ns_per_op is sweep wall time, MB/s is bytes reclaimed per compact cpu-second",
	)
	return t, nil
}
