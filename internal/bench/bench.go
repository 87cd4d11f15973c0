package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Config controls experiment scale.
type Config struct {
	// N is the base column length (default 1<<20).
	N int
	// Seed makes every generator deterministic.
	Seed int64
	// Reps is the number of timing repetitions (best is kept).
	Reps int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXP-%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Claim: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(cfg Config) (*Table, error)
}

var experiments []Experiment

// register adds an experiment at package init.
func register(e Experiment) {
	experiments = append(experiments, e)
}

// All returns every experiment, ordered by ID.
func All() []Experiment {
	out := append([]Experiment{}, experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID (case-sensitive,
// without the "EXP-" prefix).
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeBest runs f reps times and returns the best wall-clock
// duration; f's error aborts timing.
func timeBest(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// melems formats a throughput in million elements per second.
func melems(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f", float64(n)/d.Seconds()/1e6)
}

// ratio formats a compression ratio.
func ratio(uncompressedBytes, compressedBytes int) string {
	if compressedBytes == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(uncompressedBytes)/float64(compressedBytes))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
