package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// box records where and on what a run was measured.
type box struct {
	GitRev     string  `json:"git_rev"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	ClockNs    float64 `json:"clock_pair_ns"` // one time.Now + time.Since
	// CalibMs times a fixed CPU-bound job (hashing 4 MiB): a gauge of how
	// fast the box ran, for reading the run's figures, never applied to
	// them.
	CalibMs float64 `json:"calib_ms"`
}

func probeBox() box {
	return box{
		GitRev:     gitRev("."),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		ClockNs:    clockPairNs(),
		CalibMs:    calibMs(),
	}
}

func calibMs() float64 {
	buf := make([]byte, 4<<20)
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		per = append(per, float64(time.Since(t0))/1e6)
	}
	return median(per)
}

// clockPairNs measures one time.Now+time.Since pair: the median of
// several batches' per-pair cost.
func clockPairNs() float64 {
	const pairs = 100_000
	var per []float64
	var sink time.Duration
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			sink += time.Since(time.Now())
		}
		per = append(per, float64(time.Since(t0))/pairs)
	}
	_ = sink
	return median(per)
}

// gitRev reads HEAD's commit from the repository's .git directory without
// running git; "unknown" outside a checkout with history.
func gitRev(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rev, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
