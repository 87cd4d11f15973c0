package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host probe is how the benchmark tells a slow program from a slow
// host. The reference box is two vCPUs of a shared machine. When its
// neighbours are busy — on the sibling hardware threads of its cores,
// by every sign — the very same instructions of lwcd take 30–50 % more
// CPU time, for minutes on end: longer than a run, so no statistic
// inside a run can average it away, and wider than any bound a
// regression gate could use (README.md, "Host-speed correction").
//
// The probe is a fixed piece of work that depends on nothing in the
// product but is made of the same stuff as its inner loops: unpack
// 16-bit fields from 1 MiB of packed words into a scratch block and
// count the ones inside a range — shifts, masks, stores and compares
// at full issue width. How long it takes moves one to one with how
// long the product's work takes on the same host at the same moment;
// a dependent ALU chain or a pointer chase does not notice the
// neighbours at all, and a plain read pass over L3 over-reacts to them
// (the calibration in README.md has the numbers). So every timed slice
// is bracketed by probe readings, and every time-based metric is
// reported as it would read on the quiet host: multiplied (divided,
// for a rate) by probeQuiet / the probe time measured around the
// slice — for write-maintain, whose system calls and fsync waits the
// neighbours do not slow, only for a share of the time (hostShare in
// main.go). The buffer lives outside the Go heap so that it does not
// move the collector's pacing in the process under test.

const (
	probeWords  = 128 << 10 // 1 MiB of packed uint64
	probeBlock  = 1024      // words unpacked per scratch block
	probePasses = 8
)

// probeQuiet is what one probe reading takes on the reference box
// while its neighbours are quiet (the mean over the quiet stretches
// of the calibration runs). It only fixes the scale of the reported
// numbers — "as on the quiet reference host" — and cancels out of
// every comparison between two commits.
const probeQuiet = 5 * time.Millisecond

var (
	probePacked []uint64
	probeSink   int
)

// probeInit maps and fills the probe's buffer; it is called once,
// before anything is timed.
func probeInit() error {
	if probePacked != nil {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	probePacked = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
	r := newRNG(0, 77)
	for i := range probePacked {
		probePacked[i] = r.next()
	}
	hostProbe() // the first reading after mapping pays for the page faults' tail
	return nil
}

// hostProbe runs the probe once and returns how long it took, in
// seconds.
func hostProbe() float64 {
	t := time.Now()
	var scratch [4 * probeBlock]int64
	var inRange int
	for pass := 0; pass < probePasses; pass++ {
		for base := 0; base < len(probePacked); base += probeBlock {
			for i, v := range probePacked[base : base+probeBlock] {
				scratch[i*4] = int64(v & 0xFFFF)
				scratch[i*4+1] = int64(v >> 16 & 0xFFFF)
				scratch[i*4+2] = int64(v >> 32 & 0xFFFF)
				scratch[i*4+3] = int64(v >> 48)
			}
			for _, v := range scratch {
				if v >= 1000 && v <= 40000 {
					inRange++
				}
			}
		}
	}
	probeSink += inRange
	return time.Since(t).Seconds()
}

// probeLog collects probe readings taken around and inside one piece
// of work. A nil log takes no readings.
type probeLog []float64

func (l *probeLog) read() {
	if l != nil {
		*l = append(*l, hostProbe())
	}
}

// slowdown is how much slower than the quiet reference host the host
// was, judged by the readings: 1 when they average probeQuiet, 1.3
// when the probe took 30 % longer.
func (l probeLog) slowdown() float64 {
	var sum float64
	for _, r := range l {
		sum += r
	}
	return sum / float64(len(l)) / probeQuiet.Seconds()
}

// stretch is how much longer than on the quiet reference host a piece
// of work took whose time slows with the probe for the given share and
// not at all for the rest (system calls, fsync waits): measured time ÷
// stretch is the time on the quiet host.
func (l probeLog) stretch(share float64) float64 {
	return 1 - share + share*l.slowdown()
}

// timeSetup runs one set-up and returns how long it took, as measured
// and corrected like every other time the benchmark reports. setup
// takes probe readings between its stages; timeSetup adds two at each
// end.
func timeSetup(share float64, setup func(*probeLog) error) (raw, corrected float64, err error) {
	var log probeLog
	log.read()
	log.read()
	t0 := time.Now()
	err = setup(&log)
	raw = time.Since(t0).Seconds()
	log.read()
	log.read()
	return raw, raw / log.stretch(share), err
}
