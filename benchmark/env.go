package main

import (
	"crypto/sha1"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sources is every file of the benchmark's directory, embedded so the
// binary can name the exact benchmark code it was built from even in
// a checkout that is not a git repository.
//
//go:embed *
var sources embed.FS

// fingerprint is the environment a run was measured in; it heads
// every output so two result sets can be checked for comparability
// before their numbers are compared.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Load1      float64 `json:"load1"`
	TreeHash   string  `json:"benchmark_tree"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		Load1:      -1,
		TreeHash:   treeHash(),
	}
	if f := strings.Fields(readTrim("/proc/loadavg")); len(f) > 0 {
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			fp.Load1 = v
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s kernel=%s load1=%.2f benchmark_tree=%s",
		fp.NProc, fp.GOMAXPROCS, fp.CPUModel, fp.GoVersion, fp.Kernel, fp.Load1, fp.TreeHash)
}

// busy reports whether the machine was already loaded when the run
// started: numbers taken then are suspect, so the caller warns.
func (fp fingerprint) busy() bool { return fp.Load1 > 0.5*float64(fp.NProc) }

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash is the git tree-object hash of the embedded directory
// (flat, every file mode 100644), so it equals
// `git rev-parse HEAD:benchmark` for a clean checkout of the commit
// the binary was built from.
func treeHash() string {
	entries, err := sources.ReadDir(".")
	if err != nil {
		return "unknown"
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var tree []byte
	for _, name := range names {
		data, err := sources.ReadFile(name)
		if err != nil {
			return "unknown"
		}
		blob := sha1.New()
		fmt.Fprintf(blob, "blob %d\x00", len(data))
		blob.Write(data)
		tree = append(tree, "100644 "+name+"\x00"...)
		tree = blob.Sum(tree)
	}
	h := sha1.New()
	fmt.Fprintf(h, "tree %d\x00", len(tree))
	h.Write(tree)
	return hex.EncodeToString(h.Sum(nil))[:12]
}
