package main

import (
	"fmt"
	"sync"
	"time"

	"needle/internal/core"
)

// refNominalMs is the reference kernel's duration on the calibration host
// when it is quiet; end-to-end times are reported at that speed.
const refNominalMs = 2.0

// hostSpeed tracks how fast the host runs right now. The benchmark's hosts
// share their cores with other tenants, and their speed drifts by tens of
// percent over seconds to minutes, far more than a change to the program
// should be allowed to move a metric. A fixed reference kernel, which is
// the benchmark's own code and never changes with the program, is timed
// between operations; end-to-end times are scaled by refNominalMs over its
// median, so they read as if measured on the quiet host. Interleaving is
// what makes this work: the kernel sees the same slow and fast phases as
// the operations around it.
type hostSpeed struct {
	mu      sync.Mutex
	samples []float64     // kernel durations in ms
	spent   time.Duration // total time spent in the kernel
	sink    int64
}

// probe times one run of the reference kernel. Safe for concurrent use.
func (h *hostSpeed) probe() {
	t0 := time.Now()
	v := refKernel(500_000)
	d := time.Since(t0)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink += v
	h.samples = append(h.samples, ms(d))
	h.spent += d
}

// progress probes between the programs of a serial sweep
// (a core.WithProgress callback, which runs on the sweep's goroutine).
func (h *hostSpeed) progress(core.Progress) { h.probe() }

// factor converts a time measured since sample first to the quiet host's
// speed: refNominalMs over the median kernel duration since then.
func (h *hostSpeed) factor(first int) float64 {
	if first >= len(h.samples) {
		return 1
	}
	return refNominalMs / median(h.samples[first:])
}

// refKernel runs n steps of a small register machine: switch dispatch,
// data-dependent branches and loads and stores over a 64 KiB table, the
// shape of an interpreter's hot loop.
func refKernel(n int) int64 {
	const words = 1 << 13
	var mem [words]int64
	var r [8]int64
	r[1] = 12345
	code := [...]uint8{0, 1, 2, 3, 4, 5, 1, 6, 2, 7, 0, 3}
	pc := 0
	for i := 0; i < n; i++ {
		switch code[pc] {
		case 0:
			r[0] = r[1]*1103515245 + 12345
		case 1:
			r[2] = mem[r[0]&(words-1)]
		case 2:
			r[3] += r[2] ^ r[0]
		case 3:
			mem[(r[3]>>3)&(words-1)] = r[3]
		case 4:
			if r[3]&1 == 0 {
				r[4]++
			} else {
				r[5]--
			}
		case 5:
			r[1] = r[0] >> 7
		case 6:
			r[6] += r[4] * r[5]
		case 7:
			r[1] ^= r[6]
		}
		pc++
		if pc == len(code) {
			pc = 0
		}
	}
	return r[6] + r[1]
}

// hostRow is the human-readable line that reports a run's speed factor and
// the raw median it scaled.
func hostRow(name string, f, rawMs float64) string {
	return fmt.Sprintf("%-12s %-24s %14.4f (reference kernel at %.2fx quiet speed; raw median %.4f ms)",
		name, "host_factor", f, f, rawMs)
}
