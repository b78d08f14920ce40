package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

type timer struct{ t0 time.Time }

func startTimer() timer { return timer{time.Now()} }

func (t timer) seconds() float64 { return time.Since(t.t0).Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the heap still in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcCounters reads cumulative allocation and collection counts.
type gcCounters struct {
	allocBytes, cycles uint64
}

func readGC() gcCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return gcCounters{allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64()}
}

func (c gcCounters) since(prev gcCounters) (allocMB, cycles float64) {
	return float64(c.allocBytes-prev.allocBytes) / (1 << 20), float64(c.cycles - prev.cycles)
}

// probeSetup runs the named workload's set-up once in a fresh process of
// this binary and returns its duration in seconds.
func probeSetup(root, name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--root", root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Fields(string(out))
	if len(lines) == 0 {
		return 0, fmt.Errorf("%s: probe printed nothing", name)
	}
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}
