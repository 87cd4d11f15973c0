package main

import (
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A timed phase runs its fixed op list as equal slices, one after the
// other, each slice as a few equal parts with a host-probe reading
// (probe.go) before every part and after the last. Throughput, CPU per
// op and the latency percentiles are computed per slice, corrected for
// how slow the host was around that slice, and the median over the
// slices is the metric. The correction takes out what the host's
// neighbours do over minutes; the median takes out what they do for a
// second or two, which a whole-run mean — or a whole-run p95, whose top
// 5 % a slow spell fills entirely — would keep. A part holds a whole
// number of template rotations, so every slice times the same mix of
// shapes.

// phase is the record of one timed phase.
type phase struct {
	partLen int       // ops per part
	parts   int       // parts per slice
	share   float64   // share of the workload's time that slows with the host probe
	walls   []float64 // per part, seconds
	cpus    []float64 // per part, CPU seconds of the process under test
	probes  probeLog  // host-probe readings: one before each part, one after the last
	rss     []float64 // resident set of the process under test, MiB, sampled every rssEvery
}

// rssEvery is the sampling period of the resident set: a few hundred
// samples over a 20 s phase, so their median does not depend on where
// in a garbage-collection cycle any one reading fell.
const rssEvery = 50 * time.Millisecond

// sampleRSS reads the resident set of pid every rssEvery, and once
// more when stop is closed — so that a phase shorter than the period
// has its one sample — then sends the samples on out.
func sampleRSS(pid int, stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	read := func() {
		if v, err := procRSSMiB(pid, "VmRSS:"); err == nil {
			samples = append(samples, v)
		}
	}
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			read()
			out <- samples
			return
		case <-tick.C:
			read()
		}
	}
}

// runPhase runs ops ops as size.slices equal slices of size.parts equal
// parts through runPart, which executes ops [lo, hi) and returns the wall
// time that took. pid is the process under test.
func runPhase(pid, ops int, size workloadSize, runPart func(lo, hi int) time.Duration) (*phase, error) {
	slices, parts := size.slices, size.parts
	ph := &phase{partLen: ops / (slices * parts), parts: parts, share: size.hostShare}
	stop, sampled := make(chan struct{}), make(chan []float64, 1)
	go sampleRSS(pid, stop, sampled)
	defer func() {
		close(stop)
		ph.rss = <-sampled
	}()
	for k := 0; k < slices*parts; k++ {
		ph.probes.read()
		cpu0, err := procCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		wall := runPart(k*ph.partLen, (k+1)*ph.partLen)
		cpu1, err := procCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		ph.walls = append(ph.walls, wall.Seconds())
		ph.cpus = append(ph.cpus, cpu1-cpu0)
	}
	ph.probes.read()
	return ph, nil
}

// report sets the metrics a timed phase yields from the per-op
// latencies (latencyNs[i] is op i's), and adds the uncorrected view of
// the phase — raw medians, p99, max and the resident-set high-water
// mark included — to the notes. rss_mib is the median of the
// resident-set samples, not the high-water mark: the peak is set by
// one transient (how far the heap overshoots before the first
// collections settle) and spread twice as wide from run to run.
func (ph *phase) report(out *outcome, latencyNs []int64, peakRSSMiB float64) error {
	sliceLen := ph.partLen * ph.parts
	slices := len(ph.walls) / ph.parts
	if len(latencyNs) != sliceLen*slices {
		return errors.New("timed phase did not run every op")
	}
	if len(ph.rss) == 0 {
		return errors.New("the resident set of the process under test could not be read")
	}
	n := float64(sliceLen)
	var rate, cpu, p50, p95, rawRate, stretch []float64
	for k := 0; k < slices; k++ {
		var wall, cpuS float64
		for j := k * ph.parts; j < (k+1)*ph.parts; j++ {
			wall += ph.walls[j]
			cpuS += ph.cpus[j]
		}
		if wall <= 0 {
			return errors.New("a slice of the timed phase took no time")
		}
		s := ph.probes[k*ph.parts : (k+1)*ph.parts+1].stretch(ph.share)
		lat := sortedCopy(latencyNs[k*sliceLen : (k+1)*sliceLen])
		stretch = append(stretch, s)
		rawRate = append(rawRate, n/wall)
		rate = append(rate, n/wall*s)
		cpu = append(cpu, cpuS*1000/n/s)
		p50 = append(p50, msOf(percentile(lat, 0.50))/s)
		p95 = append(p95, msOf(percentile(lat, 0.95))/s)
	}
	out.set("ops_per_s", median(rate))
	out.set("op_p50_ms", median(p50))
	out.set("op_p95_ms", median(p95))
	out.set("cpu_ms_per_op", median(cpu))
	out.set("rss_mib", median(ph.rss))

	lat := sortedCopy(latencyNs)
	var wall, cpuS float64
	for j, w := range ph.walls {
		wall += w
		cpuS += ph.cpus[j]
	}
	out.notef("%d slices of %d ops (%d parts of %d), %d samples beyond p95 in each; %d resident-set samples",
		slices, sliceLen, ph.parts, ph.partLen, sliceLen-int(0.95*n+0.999999), len(ph.rss))
	out.notef("host probe: median %.3f ms against %.3f ms on the quiet reference host; per-slice stretch at a host share of %.2f %.3g; per-slice ops/s as measured %.4g, corrected %.4g",
		median(ph.probes)*1e3, probeQuiet.Seconds()*1e3, ph.share, stretch, rawRate, rate)
	out.notef("whole phase as measured, uncorrected: %d ops in %.2fs = %.5g ops/s, %.4g CPU ms/op, p50 %.4g ms, p95 %.4g ms, p99 %.4g ms, max %.4g ms, peak resident set %.1f MiB",
		len(lat), wall, float64(len(lat))/wall, cpuS*1000/float64(len(lat)), msOf(percentile(lat, 0.50)), msOf(percentile(lat, 0.95)),
		msOf(percentile(lat, 0.99)), msOf(lat[len(lat)-1]), peakRSSMiB)
	return nil
}

// procRSSMiB reads one kB-valued field ("VmRSS:", "VmHWM:") of
// /proc/<pid>/status.
func procRSSMiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				return float64(kb) / 1024, nil
			}
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
