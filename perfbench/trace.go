package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"needle/internal/obs"
	"needle/internal/pipeline"
)

// stageTimer is the traced run's pipeline.Store: it times every Do by
// stage name and hit flag, and records a span for it in a private
// obs.Registry. Over a nil inner store it is a pass-through whose Do just
// calls compute, which behaves exactly like running with no store. While
// off it forwards without timing, so one server can serve untraced and
// traced phases.
type stageTimer struct {
	inner pipeline.Store
	reg   *obs.Registry
	on    atomic.Bool

	mu   sync.Mutex
	recs []doRecord
}

// doRecord is one timed Store.Do call.
type doRecord struct {
	stage, prog string
	hit         bool
	computed    bool
	total       time.Duration // the whole Do, hit or miss
	compute     time.Duration // the stage's own work, when it ran
	instrs, occ int64         // capture counts, when a profile was computed
}

func newStageTimer(inner pipeline.Store, reg *obs.Registry) *stageTimer {
	t := &stageTimer{inner: inner, reg: reg}
	t.on.Store(true)
	return t
}

func (t *stageTimer) Do(st *pipeline.Stage, a *pipeline.Artifacts, key string, compute func() (any, error)) (any, error, bool) {
	if !t.on.Load() {
		if t.inner == nil {
			v, err := compute()
			return v, err, false
		}
		return t.inner.Do(st, a, key, compute)
	}
	rec := doRecord{stage: st.Name, prog: a.Program.Name}
	sp := t.reg.Start("store: "+st.Name).SetArg("program", rec.prog)
	timed := func() (any, error) {
		t0 := time.Now()
		v, err := compute()
		rec.compute, rec.computed = time.Since(t0), true
		if pa, ok := v.(*pipeline.ProfileArtifact); ok && err == nil {
			rec.instrs, rec.occ = pa.Trace.Mix.Total, int64(len(pa.Trace.Occ))
		}
		return v, err
	}
	t0 := time.Now()
	var (
		v   any
		err error
	)
	if t.inner == nil {
		v, err = timed()
	} else {
		v, err, rec.hit = t.inner.Do(st, a, key, timed)
	}
	rec.total = time.Since(t0)
	sp.SetArg("hit", rec.hit).End()
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	return v, err, rec.hit
}

func (t *stageTimer) Stats() map[string]pipeline.CacheStats {
	if t.inner == nil {
		return map[string]pipeline.CacheStats{}
	}
	return t.inner.Stats()
}

// drain returns and forgets the records made so far.
func (t *stageTimer) drain() []doRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs
	t.recs = nil
	return r
}

// stageSums totals a batch of records: compute and hit time by stage, hit
// and call counts, and the capture counts of computed profiles.
type stageSums struct {
	compute, hit map[string]time.Duration
	hits, calls  int
	instrs, occ  int64
	// captured maps each program whose profile was computed to its capture
	// time and instruction count.
	captured map[string]doRecord
}

func sumRecords(recs []doRecord) stageSums {
	s := stageSums{compute: map[string]time.Duration{}, hit: map[string]time.Duration{}, captured: map[string]doRecord{}}
	for _, r := range recs {
		s.calls++
		if r.hit {
			s.hits++
			s.hit[r.stage] += r.total
		}
		if r.computed {
			s.compute[r.stage] += r.compute
		}
		if r.computed && r.stage == "profile" {
			s.instrs += r.instrs
			s.occ += r.occ
			s.captured[r.prog] = r
		}
	}
	return s
}

// hitRatio is hits over Do calls (0 with no calls).
func (s stageSums) hitRatio() float64 { return ratio(int64(s.hits), int64(s.calls)) }

// memLookups counts the memory tier's hits and lookups between two
// Store.Stats snapshots.
func memLookups(before, after map[string]pipeline.CacheStats) (hits, all int64) {
	for stage, a := range after {
		b := before[stage]
		hits += a.Hits - b.Hits
		all += a.Hits - b.Hits + a.Misses - b.Misses
	}
	return hits, all
}

// ratio is n over d, 0 when d is 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// handlerTimer wraps the server's handler and times each ServeHTTP call,
// indexed by the request's X-Perfbench-Id header.
type handlerTimer struct {
	h    http.Handler
	reg  *obs.Registry
	on   atomic.Bool
	durs []atomic.Int64
}

const idHeader = "X-Perfbench-Id"

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	sp := t.reg.Start("serve " + r.URL.Path)
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	sp.End()
	if i, err := strconv.Atoi(r.Header.Get(idHeader)); err == nil && i >= 0 && i < len(t.durs) {
		t.durs[i].Store(int64(d))
	}
}

// writeTrace writes the traced run's spans as a Chrome trace under the
// checkout's build directory.
func writeTrace(root, name string, seed int64, reg *obs.Registry) (string, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// zeroLayers sets every per-layer metric a workload does not exercise to 0:
// the layer did no work on this workload.
func zeroLayers(b *bench) {
	for _, d := range perLayer {
		if _, ok := b.metrics[d.name]; !ok {
			b.set(d.name, 0)
		}
	}
}
