package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a re-exec of this binary as the server under test:
// main sees it and becomes exactly cmd/lwcd's main. Re-exec instead
// of `go build ./cmd/lwcd` keeps compilation out of setup_s and
// guarantees the daemon and the benchmark are the same source tree.
const childEnv = "LWCBENCH_CHILD"

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// child is one running lwcd process.
type child struct {
	cmd        *exec.Cmd
	url        string
	stderrPath string
	exited     chan struct{} // closed once cmd.Wait has returned
	waitErr    error
}

// startChild launches lwcd over dir on a free loopback port and waits
// for /readyz. Picking a port by bind-and-close can lose a race with
// another process, so a child that dies or never gets ready is
// retried on a fresh port.
func startChild(ctx context.Context, dir string, extraArgs ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := startChildOnce(ctx, dir, extraArgs)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("starting lwcd: %w", lastErr)
}

func startChildOnce(ctx context.Context, dir string, extraArgs []string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stderrPath := filepath.Join(dir, "lwcd.stderr")
	stderr, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor

	args := append([]string{"-dir", dir, "-addr", addr}, extraArgs...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=lwcd")
	cmd.Stderr = stderr
	// If the benchmark itself is killed outright the kernel takes the
	// daemon down with it; every orderly path goes through stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, url: "http://" + addr, stderrPath: stderrPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()

	ready := time.NewTimer(15 * time.Second)
	defer ready.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-c.exited:
			return nil, fmt.Errorf("lwcd exited before it was ready (%v): %s", c.waitErr, c.stderrTail())
		case <-ready.C:
			tail := c.stderrTail()
			c.stop()
			return nil, fmt.Errorf("lwcd not ready after 15s: %s", tail)
		case <-tick.C:
			resp, err := http.Get(c.url + "/readyz")
			if err != nil {
				continue
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
	}
}

// stop asks the daemon to exit, escalates to SIGKILL after five
// seconds, and always waits until the process is gone. Safe to call
// more than once.
func (c *child) stop() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

func (c *child) stderrTail() string {
	b, err := os.ReadFile(c.stderrPath)
	if err != nil {
		return "(no stderr captured)"
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// pid is the daemon's process ID.
func (c *child) pid() int { return c.cmd.Process.Pid }

// procCPUSeconds is the CPU time a process has used so far: the
// on-CPU nanoseconds of all its threads from
// /proc/<pid>/task/*/schedstat. (utime+stime of /proc/<pid>/stat count
// in 10 ms ticks, which made cpu_ms_per_op read the same few values
// run after run; they remain the fallback where schedstats are not
// compiled in.)
func procCPUSeconds(pid int) (float64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			if errors.Is(err, os.ErrNotExist) && len(tasks) > 1 {
				continue // a thread that exited between the two reads
			}
			return procCPUTicks(pid)
		}
		f := strings.Fields(string(b))
		if len(f) != 3 {
			return procCPUTicks(pid)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return procCPUTicks(pid)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procCPUTicks reads utime+stime (fields 14 and 15) of
// /proc/<pid>/stat. The command name (field 2) may contain spaces, so
// fields are counted from the closing parenthesis.
func procCPUTicks(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable CPU times in /proc stat line")
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}
